//===- theory/SmtSolver.cpp - Quantifier-free SMT driver -------------------===//

#include "theory/SmtSolver.h"

#include "support/Rational.h"
#include "theory/CongruenceClosure.h"
#include "theory/Simplex.h"

#include <algorithm>
#include <string_view>

using namespace temos;

namespace {

constexpr int MaxBranchDepth = 64;
constexpr uint32_t None = UINT32_MAX;

/// Node ids of the terms one check has numbered: open addressing on the
/// term pointer (terms are hash-consed, so the pointer is the identity).
class TermIndex {
public:
  /// The id of \p T, or None.
  uint32_t find(const Term *T) const {
    if (Slots.empty())
      return None;
    for (size_t S = slot(T);; S = (S + 1) & (Slots.size() - 1)) {
      if (Slots[S].first == T)
        return Slots[S].second;
      if (!Slots[S].first)
        return None;
    }
  }

  /// Forgets every term, keeping the table unless a large check grew it.
  void clear() {
    if (Slots.size() > 1024)
      Slots = {};
    std::fill(Slots.begin(), Slots.end(), std::pair<const Term *, uint32_t>());
    Count = 0;
  }

  /// Records \p T (not yet present) with id \p Id.
  void insert(const Term *T, uint32_t Id) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    size_t S = slot(T);
    while (Slots[S].first)
      S = (S + 1) & (Slots.size() - 1);
    Slots[S] = {T, Id};
    ++Count;
  }

private:
  size_t slot(const Term *T) const {
    return static_cast<size_t>(
               (reinterpret_cast<uintptr_t>(T) >> 4) * 0x9E3779B97F4A7C15ull >>
               32) &
           (Slots.size() - 1);
  }

  void grow() {
    std::vector<std::pair<const Term *, uint32_t>> Old(
        std::max<size_t>(32, 2 * Slots.size()));
    Old.swap(Slots);
    Count = 0;
    for (const auto &[T, Id] : Old)
      if (T)
        insert(T, Id);
  }

  std::vector<std::pair<const Term *, uint32_t>> Slots;
  size_t Count = 0;
};

/// Floor of a delta-rational, accounting for the infinitesimal.
int64_t floorDR(const DeltaRational &V) {
  if (V.real().isInteger()) {
    if (V.delta().isNegative())
      return V.real().floor() - 1;
    return V.real().floor();
  }
  return V.real().floor();
}

/// An atom for the simplex, asserted after its new numeric constants are
/// created (see TheoryCheck::placeConstants).
struct ArithAtom {
  LinearAtom Atom;
  /// Integrality of each constant the atom mentions first, in order.
  std::vector<bool> Fresh = {};
};

/// The arithmetic sub-problem: atoms plus numeric disequalities, solved
/// by simplex with case splits and branch-and-bound.
class ArithmeticCore {
public:
  /// Integrality of the variables the check numbered.
  std::vector<bool> IsInt;
  std::vector<ArithAtom> Atoms;
  /// Each entry's Expr means Expr != 0 (split into Expr < 0 or Expr > 0).
  std::vector<ArithAtom> Disequalities;
  Deadline Dl;

  void clear() {
    IsInt.clear();
    Atoms.clear();
    Disequalities.clear();
  }

  SatResult solve(std::vector<Rational> *Model) {
    Simplex S;
    S.setDeadline(Dl);
    // Room for every variable a branch can create: the check's own, then
    // per atom and disequality its new constants and at most one slack.
    size_t Fresh = 0;
    for (const std::vector<ArithAtom> *List : {&Atoms, &Disequalities})
      for (const ArithAtom &A : *List)
        Fresh += A.Fresh.size() + 1;
    S.reserve(IsInt.size() + Fresh);
    for (bool Int : IsInt)
      S.addVariable(Int);
    for (const ArithAtom &A : Atoms)
      if (!assertAtom(S, A, A.Atom.Rel))
        return SatResult::Unsat;
    return splitDisequalities(std::move(S), 0, MaxBranchDepth, Model);
  }

private:
  static bool assertAtom(Simplex &S, const ArithAtom &A, LinearRel Rel) {
    for (bool Int : A.Fresh)
      S.addVariable(Int);
    if (Rel == A.Atom.Rel)
      return S.assertAtom(A.Atom);
    return S.assertAtom({A.Atom.Expr, Rel});
  }

  SatResult splitDisequalities(Simplex S, size_t Index, int Budget,
                               std::vector<Rational> *Model) {
    Dl.check();
    if (Index == Disequalities.size())
      return branchAndBound(std::move(S), Budget, Model);
    bool SawUnknown = false;
    for (LinearRel Rel : {LinearRel::LT, LinearRel::GT}) {
      Simplex Branch = Rel == LinearRel::LT ? S : std::move(S);
      if (!assertAtom(Branch, Disequalities[Index], Rel))
        continue;
      SatResult R =
          splitDisequalities(std::move(Branch), Index + 1, Budget, Model);
      if (R == SatResult::Sat)
        return R;
      if (R == SatResult::Unknown)
        SawUnknown = true;
    }
    return SawUnknown ? SatResult::Unknown : SatResult::Unsat;
  }

  SatResult branchAndBound(Simplex S, int Budget,
                           std::vector<Rational> *Model) {
    Dl.check();
    if (!S.check())
      return SatResult::Unsat;
    std::vector<VarId> Fractional = S.fractionalIntVariables();
    if (Fractional.empty()) {
      if (Model)
        *Model = S.concreteModel();
      return SatResult::Sat;
    }
    if (Budget <= 0)
      return SatResult::Unknown;

    const VarId Var = Fractional.front();
    int64_t K = floorDR(S.value(Var));
    bool SawUnknown = false;
    // x <= floor(v).
    {
      Simplex Below = S;
      if (Below.assertVariableBound(Var, /*Upper=*/true,
                                    DeltaRational(Rational(K)))) {
        SatResult R = branchAndBound(std::move(Below), Budget - 1, Model);
        if (R == SatResult::Sat)
          return R;
        SawUnknown |= R == SatResult::Unknown;
      }
    }
    // x >= floor(v) + 1.
    {
      Simplex Above = std::move(S);
      if (Above.assertVariableBound(Var, /*Upper=*/false,
                                    DeltaRational(Rational(K + 1)))) {
        SatResult R = branchAndBound(std::move(Above), Budget - 1, Model);
        if (R == SatResult::Sat)
          return R;
        SawUnknown |= R == SatResult::Unknown;
      }
    }
    return SawUnknown ? SatResult::Unknown : SatResult::Unsat;
  }
};

/// One theory check over a conjunction of literals. The literals'
/// subterms are numbered once, in registration order (each atom, then
/// its arguments, depth first), and that number is their congruence-
/// closure node; nodes 0 and 1 are the truth markers that boolean atoms
/// are merged with.
///
/// Arithmetic variables are numbered once as well: the signals and the
/// purified applications (numeric applications of uninterpreted
/// functions with arguments) in the order of their names -- a signal's
/// name, an application's rendering -- with equal names sharing one
/// variable. Numeric constants (zero-argument applications) are not
/// among them: the simplex creates each one, integer-valued if it is
/// Int-sorted, when an atom first mentions it, between the slacks, which
/// placeConstants reproduces.
///
/// The containers outlive the check: each thread reuses one TheoryCheck
/// (see check()), so a check allocates little beyond its linear
/// expressions, its simplex and the model.
class TheoryCheck {
public:
  /// Satisfiability of the conjunction of \p Literals, on this thread's
  /// reused check.
  static SatResult check(const std::vector<TheoryLiteral> &Literals,
                         const Deadline &Dl, Assignment *Model) {
    thread_local TheoryCheck Scratch;
    Scratch.reset(Dl);
    return Scratch.run(Literals, Model);
  }

private:
  enum : CongruenceClosure::NodeId { TrueNode = 0, FalseNode = 1 };

  void reset(const Deadline &Dl);
  SatResult run(const std::vector<TheoryLiteral> &Literals,
                Assignment *Model);
  uint32_t addTerm(const Term *T);
  uint32_t symbolOf(const Term *T);
  void numberVariables();
  void placeConstants();
  VarId varOf(const Term *T) const { return NodeVar[Index.find(T)]; }
  void fillModel(Assignment &Model);

  TermIndex Index;
  /// Node id -> term (null for the truth markers).
  std::vector<const Term *> Nodes;
  /// Node N's arguments are ArgIds[ArgBegin[N], ArgBegin[N] + arity).
  std::vector<uint32_t> ArgBegin;
  std::vector<uint32_t> ArgIds;
  /// One representative application per congruence symbol.
  std::vector<const Term *> Symbols;
  /// Node id -> arithmetic variable, or None.
  std::vector<VarId> NodeVar;
  /// Variables [0, Structural) are signals and purified applications;
  /// [Structural, Structural + Constants) are numeric constants, in the
  /// order of their renderings.
  VarId Structural = 0;
  VarId Constants = 0;
  /// Integrality of constant Structural + I.
  std::vector<bool> ConstantIsInt;
  /// Numeric signals reported in models: (name, variable).
  std::vector<std::pair<const std::string *, VarId>> ModelSignals;
  CongruenceClosure CC;
  ArithmeticCore Arith;

  // Working storage of single steps, kept for its capacity.
  struct Keyed {
    std::string_view Key;
    uint32_t Node;
  };
  std::vector<Keyed> Vars, Consts;
  std::vector<std::string> Rendered;
  std::vector<uint32_t> RenderedNode;
  std::vector<std::pair<uint32_t, uint32_t>> NumericEqualities;
  std::vector<VarId> Placed;
  std::vector<Rational> Values;
  std::vector<const std::string *> ClassSymbol;
};

void TheoryCheck::reset(const Deadline &Dl) {
  Index.clear();
  Nodes.assign(2, nullptr);
  ArgBegin.assign(2, 0);
  ArgIds.clear();
  Symbols.clear();
  Structural = Constants = 0;
  ModelSignals.clear();
  CC.clear();
  Arith.clear();
  Arith.Dl = Dl;
  NumericEqualities.clear();
}

uint32_t TheoryCheck::addTerm(const Term *T) {
  if (uint32_t Id = Index.find(T); Id != None)
    return Id;
  const uint32_t Id = static_cast<uint32_t>(Nodes.size());
  Index.insert(T, Id);
  Nodes.push_back(T);
  ArgBegin.push_back(static_cast<uint32_t>(ArgIds.size()));
  ArgIds.resize(ArgIds.size() + T->arity());
  for (size_t K = 0; K < T->arity(); ++K) {
    uint32_t Arg = addTerm(T->args()[K]);
    ArgIds[ArgBegin[Id] + K] = Arg;
  }
  return Id;
}

uint32_t TheoryCheck::symbolOf(const Term *T) {
  if (!T->isApply() || T->arity() == 0)
    return CongruenceClosure::Leaf;
  for (uint32_t S = 0; S < Symbols.size(); ++S) {
    const Term *Rep = Symbols[S];
    if (Rep->arity() == T->arity() && Rep->builtin() == T->builtin() &&
        (T->builtin() || Rep->name() == T->name()))
      return S;
  }
  Symbols.push_back(T);
  return static_cast<uint32_t>(Symbols.size() - 1);
}

void TheoryCheck::numberVariables() {
  // A variable's key: a signal's name or an application's rendering. The
  // first node with a key decides its integrality (and, for a signal,
  // whether a model reports it).
  Vars.clear();
  Consts.clear();
  Rendered.clear();
  RenderedNode.clear();
  for (uint32_t N = 2; N < Nodes.size(); ++N) {
    const Term *T = Nodes[N];
    if (T->isSignal()) {
      Vars.push_back({T->name(), N});
      continue;
    }
    if (!T->isApply() || !isNumericSort(T->sort()))
      continue;
    const Builtin *B = T->builtin();
    bool Arithmetic = B && B->Sorts == Builtin::Rule::Arithmetic;
    if (Arithmetic && T->arity() == 2)
      continue; // Linear structure, not a variable.
    Rendered.push_back(T->str());
    RenderedNode.push_back(N);
  }
  for (size_t I = 0; I < Rendered.size(); ++I) {
    const Term *T = Nodes[RenderedNode[I]];
    const Builtin *B = T->builtin();
    bool Purified =
        T->arity() > 0 && !(B && B->Sorts == Builtin::Rule::Arithmetic);
    (Purified ? Vars : Consts).push_back({Rendered[I], RenderedNode[I]});
  }
  auto ByKey = [](const Keyed &A, const Keyed &B) { return A.Key < B.Key; };
  std::stable_sort(Vars.begin(), Vars.end(), ByKey);
  std::stable_sort(Consts.begin(), Consts.end(), ByKey);

  NodeVar.assign(Nodes.size(), None);
  for (size_t I = 0; I < Vars.size();) {
    size_t End = I;
    bool Numeric = false;
    while (End < Vars.size() && Vars[End].Key == Vars[I].Key)
      Numeric |= isNumericSort(Nodes[Vars[End++].Node]->sort());
    if (Numeric) {
      const Term *First = Nodes[Vars[I].Node];
      if (First->isSignal() && isNumericSort(First->sort()))
        ModelSignals.emplace_back(&First->name(), Structural);
      Arith.IsInt.push_back(First->sort() == Sort::Int);
      for (; I < End; ++I)
        NodeVar[Vars[I].Node] = Structural;
      ++Structural;
    }
    I = End;
  }
  ConstantIsInt.clear();
  for (size_t I = 0; I < Consts.size(); ++Constants) {
    const std::string_view Key = Consts[I].Key;
    ConstantIsInt.push_back(Nodes[Consts[I].Node]->sort() == Sort::Int);
    for (; I < Consts.size() && Consts[I].Key == Key; ++I)
      NodeVar[Consts[I].Node] = Structural + Constants;
  }
}

void TheoryCheck::placeConstants() {
  // The simplex numbers a constant when the first asserted atom that
  // mentions it is asserted: atoms in order, then the disequalities
  // (each split asserts them in order). An atom's new constants come in
  // rendering order, then its slack.
  Placed.assign(Structural + Constants, None);
  for (VarId V = 0; V < Structural; ++V)
    Placed[V] = V;
  VarId Next = Structural;
  auto Place = [&](ArithAtom &A) {
    LinearExpr Renumbered(A.Atom.Expr.constant());
    for (const LinearExpr::Entry &E : A.Atom.Expr.entries()) {
      if (Placed[E.Var] == None) {
        Placed[E.Var] = Next++;
        A.Fresh.push_back(ConstantIsInt[E.Var - Structural]);
      }
      Renumbered =
          Renumbered + LinearExpr::variable(Placed[E.Var]).scaled(E.Coeff);
    }
    A.Atom.Expr = std::move(Renumbered);
    if (Simplex::needsSlack(A.Atom.Expr))
      ++Next;
  };
  for (ArithAtom &A : Arith.Atoms)
    Place(A);
  for (ArithAtom &A : Arith.Disequalities)
    Place(A);
}

SatResult TheoryCheck::run(const std::vector<TheoryLiteral> &Literals,
                           Assignment *Model) {
  // Truth markers, then every literal's subterms, so that function
  // congruence fires even for terms that only occur inside arithmetic
  // atoms (x = y, f(x) < f(y)).
  for (const TheoryLiteral &L : Literals)
    addTerm(L.Atom);
  for (uint32_t N = 0; N < Nodes.size(); ++N) {
    const uint32_t Sym = N < 2 ? CongruenceClosure::Leaf : symbolOf(Nodes[N]);
    const size_t Arity = N < 2 ? 0 : Nodes[N]->arity();
    CC.add(Sym, std::span<const uint32_t>(ArgIds.data() + ArgBegin[N], Arity));
  }
  if (!CC.addDisequality(TrueNode, FalseNode))
    return SatResult::Unsat;
  numberVariables();

  const LinearExpr::VarOf Var = [this](const Term *T) { return varOf(T); };
  for (const TheoryLiteral &L : Literals) {
    const Term *Atom = L.Atom;

    // Constant boolean atoms.
    if (Atom->isApply() && Atom->arity() == 0 && Atom->name() == "True") {
      if (!L.Positive)
        return SatResult::Unsat;
      continue;
    }
    if (Atom->isApply() && Atom->arity() == 0 && Atom->name() == "False") {
      if (L.Positive)
        return SatResult::Unsat;
      continue;
    }

    const Builtin *B = Atom->builtin();
    const bool IsEq = B && B->Code == Builtin::Op::Eq;
    const bool IsNeq = B && B->Code == Builtin::Op::Ne;
    if (B && B->isComparison() && Atom->arity() == 2 &&
        isNumericSort(Atom->args()[0]->sort()) &&
        isNumericSort(Atom->args()[1]->sort())) {
      if (!IsEq && !IsNeq) {
        auto Order = LinearAtom::fromComparison(Atom, !L.Positive, Var);
        if (!Order)
          return SatResult::Unknown; // Nonlinear.
        Arith.Atoms.push_back({std::move(*Order)});
        continue;
      }
      auto LHS = LinearExpr::fromTerm(Atom->args()[0], Var);
      auto RHS = LinearExpr::fromTerm(Atom->args()[1], Var);
      if (!LHS || !RHS)
        return SatResult::Unknown; // Nonlinear.
      if (IsEq == L.Positive) {
        Arith.Atoms.push_back({{*LHS - *RHS, LinearRel::EQ}});
        NumericEqualities.emplace_back(Index.find(Atom->args()[0]),
                                       Index.find(Atom->args()[1]));
      } else {
        Arith.Disequalities.push_back({{*LHS - *RHS, LinearRel::EQ}});
      }
      continue;
    }

    // EUF equalities/disequalities over non-numeric operands.
    if ((IsEq || IsNeq) && Atom->arity() == 2) {
      uint32_t A = Index.find(Atom->args()[0]);
      uint32_t C = Index.find(Atom->args()[1]);
      if (!(IsEq == L.Positive ? CC.merge(A, C) : CC.addDisequality(A, C)))
        return SatResult::Unsat;
      continue;
    }

    // Uninterpreted boolean predicate or boolean signal: tie the atom to
    // a truth marker so congruence decides clashes like p(x) && !p(y)
    // with x = y.
    if (!CC.merge(Index.find(Atom), L.Positive ? TrueNode : FalseNode))
      return SatResult::Unsat;
  }

  // Nelson-Oppen forward direction: explicit numeric equalities
  // participate in congruence; congruence-derived equalities between
  // numeric terms feed back into the arithmetic core.
  for (const auto &[A, C] : NumericEqualities)
    if (!CC.merge(A, C))
      return SatResult::Unsat;
  for (const auto &[A, C] : CC.equalPairs()) {
    if (A < 2 || !isNumericSort(Nodes[A]->sort()) ||
        !isNumericSort(Nodes[C]->sort()))
      continue;
    auto LHS = LinearExpr::fromTerm(Nodes[A], Var);
    auto RHS = LinearExpr::fromTerm(Nodes[C], Var);
    if (LHS && RHS)
      Arith.Atoms.push_back({{*LHS - *RHS, LinearRel::EQ}});
  }

  if (Constants > 0)
    placeConstants();
  SatResult R = Arith.solve(Model ? &Values : nullptr);
  if (R == SatResult::Sat && Model)
    fillModel(*Model);
  return R;
}

void TheoryCheck::fillModel(Assignment &Model) {
  for (const auto &[Name, V] : ModelSignals)
    Model[*Name] = Value::number(Values[V]);
  // Boolean and opaque signals from the EUF side, in registration order
  // (the order of a depth-first walk over the literals). Values must
  // respect the congruence classes: signals asserted equal (directly or
  // via congruence) get the same symbol, and boolean signals take the
  // truth marker their class was merged with, so the returned model
  // actually satisfies the EUF literals it came from.
  ClassSymbol.assign(Nodes.size(), nullptr);
  for (uint32_t N = 2; N < Nodes.size(); ++N) {
    const Term *T = Nodes[N];
    if (!T->isSignal() || Model.count(T->name()))
      continue;
    if (T->sort() == Sort::Bool) {
      Model[T->name()] = Value::boolean(CC.areEqual(N, TrueNode));
    } else if (T->sort() == Sort::Opaque) {
      const std::string *&Symbol = ClassSymbol[CC.find(N)];
      if (!Symbol)
        Symbol = &T->name();
      Model[T->name()] = Value::symbol("@" + *Symbol);
    }
  }
}

/// The atoms of a boolean-structure formula, numbered in order of first
/// occurrence, and its three-valued evaluation under an assignment of
/// them (per atom: -1 unassigned, 0 false, 1 true).
class Skeleton {
public:
  /// Numbers the atoms of \p F; false when \p F has a temporal or
  /// update node.
  bool collect(const Formula *F) {
    if (F->is(Formula::Kind::Pred)) {
      if (Index.find(F->pred()) == None) {
        Index.insert(F->pred(), static_cast<uint32_t>(Atoms.size()));
        Atoms.push_back(F->pred());
      }
      return true;
    }
    if (F->isTemporal() || F->is(Formula::Kind::Update))
      return false;
    for (const Formula *Kid : F->children())
      if (!collect(Kid))
        return false;
    return true;
  }

  const std::vector<const Term *> &atoms() const { return Atoms; }

  /// -1 when \p F is undetermined under \p Values.
  int eval(const Formula *F, const std::vector<int8_t> &Values) const {
    switch (F->kind()) {
    case Formula::Kind::True:
      return 1;
    case Formula::Kind::False:
      return 0;
    case Formula::Kind::Pred:
      return Values[Index.find(F->pred())];
    case Formula::Kind::Not: {
      int V = eval(F->child(0), Values);
      return V < 0 ? -1 : 1 - V;
    }
    case Formula::Kind::And:
    case Formula::Kind::Or: {
      // And: any false child decides; Or: any true child decides.
      const int Decides = F->is(Formula::Kind::Or);
      bool AnyUnknown = false;
      for (const Formula *Kid : F->children()) {
        int V = eval(Kid, Values);
        if (V == Decides)
          return Decides;
        AnyUnknown |= V < 0;
      }
      return AnyUnknown ? -1 : 1 - Decides;
    }
    case Formula::Kind::Implies: {
      int A = eval(F->lhs(), Values), B = eval(F->rhs(), Values);
      if (A == 0 || B == 1)
        return 1;
      return A < 0 || B < 0 ? -1 : 0;
    }
    case Formula::Kind::Iff: {
      int A = eval(F->lhs(), Values), B = eval(F->rhs(), Values);
      return A < 0 || B < 0 ? -1 : A == B;
    }
    default:
      assert(false && "temporal/update node in SMT formula");
      return -1;
    }
  }

private:
  std::vector<const Term *> Atoms;
  TermIndex Index;
};

SatResult dpll(const Formula *F, const Skeleton &S, size_t Index,
               std::vector<int8_t> &Values, std::vector<TheoryLiteral> &Trail,
               Assignment *Model, const Deadline &Dl) {
  Dl.check();
  // Evaluate under the current partial assignment.
  int V = S.eval(F, Values);
  if (V == 0)
    return SatResult::Unsat;
  if (V == 1)
    return TheoryCheck::check(Trail, Dl, Model);

  // The formula is undetermined: there must be an unassigned atom left.
  assert(Index < S.atoms().size() &&
         "undetermined formula with no atoms left");
  bool SawUnknown = false;
  for (bool Polarity : {true, false}) {
    Values[Index] = Polarity;
    Trail.push_back({S.atoms()[Index], Polarity});
    SatResult R = dpll(F, S, Index + 1, Values, Trail, Model, Dl);
    Trail.pop_back();
    Values[Index] = -1;
    if (R == SatResult::Sat)
      return R;
    SawUnknown |= R == SatResult::Unknown;
  }
  return SawUnknown ? SatResult::Unknown : SatResult::Unsat;
}

} // namespace

SatResult SmtSolver::checkFormula(const Formula *F, Assignment *Model) {
  Skeleton S;
  if (!S.collect(F))
    return SatResult::Unknown;
  std::vector<int8_t> Values(S.atoms().size(), -1);
  std::vector<TheoryLiteral> Trail;
  try {
    return dpll(F, S, 0, Values, Trail, Model, Dl);
  } catch (const RationalOverflow &) {
    // Coefficients escaped int64 range mid-solve; Unknown is the only
    // sound verdict.
    return SatResult::Unknown;
  }
}

SatResult SmtSolver::checkLiterals(const std::vector<TheoryLiteral> &Literals,
                                   Assignment *Model) {
  try {
    return TheoryCheck::check(Literals, Dl, Model);
  } catch (const RationalOverflow &) {
    return SatResult::Unknown;
  }
}
