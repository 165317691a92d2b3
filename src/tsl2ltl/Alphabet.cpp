//===- tsl2ltl/Alphabet.cpp - TSL underapproximation alphabet --------------===//

#include "tsl2ltl/Alphabet.h"

#include <algorithm>
#include <cassert>

using namespace temos;

Alphabet Alphabet::build(const Specification &Spec, Context &Ctx,
                         const std::vector<const Formula *> &Extra) {
  Alphabet AB;

  // Predicate terms from the spec and the generated assumptions.
  AB.Predicates = collectPredicateTerms(Spec);
  for (const Formula *F : Extra)
    for (const Term *P : collectPredicateTerms(F))
      if (std::find(AB.Predicates.begin(), AB.Predicates.end(), P) ==
          AB.Predicates.end())
        AB.Predicates.push_back(P);
  assert(AB.Predicates.size() <= MaxPredicates &&
         "too many predicate terms for an explicit alphabet");

  // Updatable signals: declared cells and outputs, in declaration order.
  auto AddCell = [&](const std::string &Name, Sort S) {
    CellUpdates CU;
    CU.Cell = Name;
    CU.S = S;
    AB.Cells.push_back(CU);
  };
  for (const CellDecl &D : Spec.Cells)
    AddCell(D.Name, D.S);
  for (const SignalDecl &D : Spec.Outputs)
    AddCell(D.Name, D.S);

  // Update options per cell.
  std::vector<const Formula *> Updates = collectUpdateTerms(Spec);
  for (const Formula *F : Extra)
    for (const Formula *U : collectUpdateTerms(F))
      if (std::find(Updates.begin(), Updates.end(), U) == Updates.end())
        Updates.push_back(U);
  for (const Formula *U : Updates) {
    for (CellUpdates &CU : AB.Cells)
      if (CU.Cell == U->cell()) {
        CU.Options.push_back(U);
        break;
      }
  }

  // Implicit self-updates: a cell keeps its value when nothing else is
  // chosen (TSL semantics). Outputs always need at least one option.
  for (CellUpdates &CU : AB.Cells) {
    const Formula *SelfUpdate =
        Ctx.Formulas.update(CU.Cell, Ctx.Terms.signal(CU.Cell, CU.S));
    if (std::find(CU.Options.begin(), CU.Options.end(), SelfUpdate) ==
        CU.Options.end())
      CU.Options.push_back(SelfUpdate);
  }

  AB.OutputCount = 1;
  for (const CellUpdates &CU : AB.Cells)
    AB.OutputCount *= CU.Options.size();
  assert(AB.OutputCount <= (1u << 16) &&
         "output alphabet too large for explicit games");
  return AB;
}

int Alphabet::predicateIndex(const Term *P) const {
  for (size_t I = 0; I < Predicates.size(); ++I)
    if (Predicates[I] == P)
      return static_cast<int>(I);
  return -1;
}

std::pair<int, int> Alphabet::updateIndex(const Formula *U) const {
  assert(U->is(Formula::Kind::Update) && "not an update atom");
  for (size_t C = 0; C < Cells.size(); ++C) {
    if (Cells[C].Cell != U->cell())
      continue;
    for (size_t O = 0; O < Cells[C].Options.size(); ++O)
      if (Cells[C].Options[O] == U)
        return {static_cast<int>(C), static_cast<int>(O)};
    return {static_cast<int>(C), -1};
  }
  return {-1, -1};
}

std::vector<unsigned> Alphabet::decodeOutput(uint32_t OutputIndex) const {
  std::vector<unsigned> Choices(Cells.size(), 0);
  for (size_t C = 0; C < Cells.size(); ++C) {
    unsigned Base = static_cast<unsigned>(Cells[C].Options.size());
    Choices[C] = OutputIndex % Base;
    OutputIndex /= Base;
  }
  return Choices;
}

uint32_t Alphabet::encodeOutput(const std::vector<unsigned> &Choices) const {
  assert(Choices.size() == Cells.size() && "choice vector size mismatch");
  uint32_t Index = 0;
  for (size_t C = Cells.size(); C-- > 0;) {
    unsigned Base = static_cast<unsigned>(Cells[C].Options.size());
    assert(Choices[C] < Base && "choice out of range");
    Index = Index * Base + Choices[C];
  }
  return Index;
}

uint32_t Alphabet::idleOutput() const {
  std::vector<unsigned> Choices;
  for (const CellUpdates &CU : Cells) {
    auto Self = std::find_if(
        CU.Options.begin(), CU.Options.end(), [&](const Formula *U) {
          return U->updateValue()->isSignal() &&
                 U->updateValue()->name() == CU.Cell;
        });
    assert(Self != CU.Options.end() && "every cell has a self-update");
    Choices.push_back(static_cast<unsigned>(Self - CU.Options.begin()));
  }
  return encodeOutput(Choices);
}

bool Alphabet::holds(const Formula *Atom, const Letter &L) const {
  if (Atom->is(Formula::Kind::Pred)) {
    int I = predicateIndex(Atom->pred());
    assert(I >= 0 && "predicate term not in alphabet");
    return (L.InputBits >> I) & 1;
  }
  assert(Atom->is(Formula::Kind::Update) && "atom must be Pred or Update");
  auto [C, O] = updateIndex(Atom);
  assert(C >= 0 && "update cell not in alphabet");
  if (O < 0)
    return false; // Update term not among the options: never fires.
  std::vector<unsigned> Choices = decodeOutput(L.OutputIndex);
  return Choices[static_cast<size_t>(C)] == static_cast<unsigned>(O);
}
