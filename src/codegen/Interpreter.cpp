//===- codegen/Interpreter.cpp - Execute synthesized controllers -----------===//

#include "codegen/Interpreter.h"

using namespace temos;

namespace {

Value initialValue(Sort S, const Term *Init, const Evaluator &Eval) {
  if (Init) {
    auto V = Eval.evaluate(Init, {});
    if (V)
      return *V;
  }
  switch (S) {
  case Sort::Bool:
    return Value::boolean(false);
  case Sort::Int:
  case Sort::Real:
    return Value::integer(0);
  case Sort::Opaque:
    return Value::symbol("@init");
  }
  return Value::integer(0);
}

} // namespace

Controller::Controller(const MealyMachine &M, const Alphabet &AB,
                       const Specification &Spec)
    : M(M), AB(AB), Spec(Spec) {
  reset();
}

void Controller::reset() {
  State = M.initialState();
  CellValues.clear();
  for (const CellDecl &D : Spec.Cells)
    CellValues[D.Name] = initialValue(D.S, D.Init, Eval);
  for (const SignalDecl &D : Spec.Outputs)
    CellValues[D.Name] = initialValue(D.S, nullptr, Eval);
}

const Value &Controller::cell(const std::string &Name) const {
  auto It = CellValues.find(Name);
  assert(It != CellValues.end() && "unknown cell");
  return It->second;
}

std::optional<Controller::StepOutcome>
Controller::step(const Assignment &Inputs) {
  // Environment view: inputs plus the memorized cell values.
  Assignment Env = Inputs;
  for (const auto &[Name, V] : CellValues)
    Env[Name] = V;

  // Evaluate every predicate term to form the input letter.
  StepOutcome Outcome;
  for (size_t I = 0; I < AB.predicates().size(); ++I) {
    auto B = Eval.evaluateBool(AB.predicates()[I], Env);
    if (!B)
      return std::nullopt;
    if (*B)
      Outcome.InputBits |= uint32_t(1) << I;
  }

  const MealyMachine::Edge &E = M.edge(State, Outcome.InputBits);
  Outcome.OutputLetter = E.Output;

  // Apply the chosen updates simultaneously (right-hand sides all read
  // the pre-step environment).
  std::vector<unsigned> Choices = AB.decodeOutput(E.Output);
  Assignment Next = CellValues;
  for (size_t C = 0; C < AB.cells().size(); ++C) {
    const Formula *Update = AB.cells()[C].Options[Choices[C]];
    Outcome.FiredUpdates.push_back(Update);
    auto V = Eval.evaluate(Update->updateValue(), Env);
    if (!V)
      return std::nullopt;
    Next[Update->cell()] = *V;
  }

  CellValues = std::move(Next);
  State = E.NextState;
  return Outcome;
}
