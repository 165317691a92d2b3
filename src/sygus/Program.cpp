//===- sygus/Program.cpp - Data transformation programs --------------------===//

#include "sygus/Program.h"

using namespace temos;

namespace {

std::string stepStr(const StepChoice &Step) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[Cell, Rhs] : Step) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "[" + Cell + " <- " + Rhs->str() + "]";
  }
  return Out + "}";
}

} // namespace

std::string SequentialProgram::str() const {
  std::string Out;
  for (size_t I = 0; I < Steps.size(); ++I) {
    if (I != 0)
      Out += "; ";
    Out += stepStr(Steps[I]);
  }
  return Out;
}

std::string LoopProgram::str() const {
  std::string Out = "while (!post) ";
  for (size_t I = 0; I < Body.size(); ++I) {
    if (I != 0)
      Out += "; ";
    Out += stepStr(Body[I]);
  }
  return Out;
}

std::map<std::string, const Term *>
temos::composeSymbolic(TermFactory &TF,
                       const std::vector<std::string> &CellNames,
                       const std::vector<Sort> &CellSorts,
                       const std::vector<StepChoice> &Steps) {
  assert(CellNames.size() == CellSorts.size() && "cell name/sort mismatch");
  std::vector<const Term *> Cells;
  for (size_t I = 0; I < CellNames.size(); ++I)
    Cells.push_back(TF.signal(CellNames[I], CellSorts[I]));
  // Every right-hand side reads the pre-step state.
  std::vector<const Term *> State = Cells;
  for (const StepChoice &Step : Steps) {
    std::vector<const Term *> Next = State;
    for (size_t I = 0; I < Cells.size(); ++I)
      if (auto It = Step.find(CellNames[I]); It != Step.end())
        Next[I] = TF.substitute(It->second, Cells, State);
    State = std::move(Next);
  }
  std::map<std::string, const Term *> Final;
  for (size_t I = 0; I < Cells.size(); ++I)
    Final[CellNames[I]] = State[I];
  return Final;
}

bool temos::applyStepConcrete(const Evaluator &E, Assignment &State,
                              const StepChoice &Step) {
  // Every right-hand side reads the pre-step state: evaluate them all
  // before writing any.
  std::vector<Value> Next;
  Next.reserve(Step.size());
  for (const auto &[Cell, Rhs] : Step) {
    auto V = E.evaluate(Rhs, State);
    if (!V)
      return false;
    Next.push_back(std::move(*V));
  }
  auto It = Next.begin();
  for (const auto &[Cell, Rhs] : Step)
    State[Cell] = std::move(*It++);
  return true;
}
