//===- theory/SmtSolver.cpp - Quantifier-free SMT driver -------------------===//

#include "theory/SmtSolver.h"

#include "logic/Builtin.h"
#include "support/Rational.h"
#include "theory/CongruenceClosure.h"
#include "theory/Simplex.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace temos;

namespace {

constexpr int MaxBranchDepth = 64;

/// True if \p T is a comparison whose operands are numeric (handled by
/// the arithmetic core rather than congruence closure).
bool isNumericComparison(const Term *T) {
  const Builtin *B = T->isApply() ? findBuiltin(T->name()) : nullptr;
  return B && B->isComparison() && T->arity() == 2 &&
         isNumericSort(T->args()[0]->sort()) &&
         isNumericSort(T->args()[1]->sort());
}

/// Collects every signal (and its sort) under \p T.
void collectTypedSignals(const Term *T, std::map<std::string, Sort> &Out) {
  if (T->isSignal()) {
    Out.emplace(T->name(), T->sort());
    return;
  }
  for (const Term *Arg : T->args())
    collectTypedSignals(Arg, Out);
}

/// Collects purification variables: every maximal numeric-sorted
/// non-arithmetic application below \p T, keyed by canonical string.
void collectPurifiedVars(const Term *T, std::map<std::string, Sort> &Out) {
  if (const Builtin *B = T->isApply() ? findBuiltin(T->name()) : nullptr;
      B && B->Sorts == Builtin::Rule::Arithmetic) {
    for (const Term *Arg : T->args())
      collectPurifiedVars(Arg, Out);
    return;
  }
  if (T->isApply() && T->arity() > 0 && isNumericSort(T->sort()))
    Out.emplace(T->str(), T->sort());
  // Recurse anyway: nested numeric applications inside opaque ones.
  for (const Term *Arg : T->args())
    collectPurifiedVars(Arg, Out);
}

/// Floor of a delta-rational, accounting for the infinitesimal.
int64_t floorDR(const DeltaRational &V) {
  if (V.real().isInteger()) {
    if (V.delta().isNegative())
      return V.real().floor() - 1;
    return V.real().floor();
  }
  return V.real().floor();
}

/// The arithmetic sub-problem: atoms plus numeric disequalities, solved
/// by simplex with case splits and branch-and-bound.
class ArithmeticCore {
public:
  ArithmeticCore(const std::map<std::string, Sort> &VarSorts,
                 const Deadline &Dl)
      : VarSorts(VarSorts), Dl(Dl) {}

  std::vector<LinearAtom> Atoms;
  /// Each entry D means D != 0 (split into D < 0 or D > 0).
  std::vector<LinearExpr> Disequalities;

  SatResult solve(std::map<std::string, Rational> *Model) {
    Simplex S;
    S.setDeadline(Dl);
    for (const auto &[Name, VarSort] : VarSorts)
      S.getVariable(Name, VarSort == Sort::Int);
    for (const LinearAtom &Atom : Atoms)
      if (!S.assertAtom(Atom, /*IntByDefault=*/false))
        return SatResult::Unsat;
    return splitDisequalities(S, 0, MaxBranchDepth, Model);
  }

private:
  SatResult splitDisequalities(Simplex S, size_t Index, int Budget,
                               std::map<std::string, Rational> *Model) {
    Dl.check();
    if (Index == Disequalities.size())
      return branchAndBound(std::move(S), Budget, Model);
    bool SawUnknown = false;
    for (LinearRel Rel : {LinearRel::LT, LinearRel::GT}) {
      Simplex Branch = S;
      if (!Branch.assertAtom(LinearAtom{Disequalities[Index], Rel},
                             /*IntByDefault=*/false))
        continue;
      SatResult R = splitDisequalities(std::move(Branch), Index + 1, Budget,
                                       Model);
      if (R == SatResult::Sat)
        return R;
      if (R == SatResult::Unknown)
        SawUnknown = true;
    }
    return SawUnknown ? SatResult::Unknown : SatResult::Unsat;
  }

  SatResult branchAndBound(Simplex S, int Budget,
                           std::map<std::string, Rational> *Model) {
    Dl.check();
    if (!S.check())
      return SatResult::Unsat;
    std::vector<std::string> Fractional = S.fractionalIntVariables();
    if (Fractional.empty()) {
      if (Model)
        *Model = S.concreteModel();
      return SatResult::Sat;
    }
    if (Budget <= 0)
      return SatResult::Unknown;

    const std::string &Var = Fractional.front();
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

  const std::map<std::string, Sort> &VarSorts;
  Deadline Dl;
};

/// Three-valued evaluation of a boolean-structure formula under a
/// partial atom assignment.
std::optional<bool>
evalPartial(const Formula *F,
            const std::unordered_map<const Term *, bool> &AtomValues) {
  switch (F->kind()) {
  case Formula::Kind::True:
    return true;
  case Formula::Kind::False:
    return false;
  case Formula::Kind::Pred: {
    auto It = AtomValues.find(F->pred());
    if (It == AtomValues.end())
      return std::nullopt;
    return It->second;
  }
  case Formula::Kind::Not: {
    auto V = evalPartial(F->child(0), AtomValues);
    if (!V)
      return std::nullopt;
    return !*V;
  }
  case Formula::Kind::And: {
    bool AnyUnknown = false;
    for (const Formula *Kid : F->children()) {
      auto V = evalPartial(Kid, AtomValues);
      if (!V)
        AnyUnknown = true;
      else if (!*V)
        return false;
    }
    if (AnyUnknown)
      return std::nullopt;
    return true;
  }
  case Formula::Kind::Or: {
    bool AnyUnknown = false;
    for (const Formula *Kid : F->children()) {
      auto V = evalPartial(Kid, AtomValues);
      if (!V)
        AnyUnknown = true;
      else if (*V)
        return true;
    }
    if (AnyUnknown)
      return std::nullopt;
    return false;
  }
  case Formula::Kind::Implies: {
    auto A = evalPartial(F->lhs(), AtomValues);
    auto B = evalPartial(F->rhs(), AtomValues);
    if (A && !*A)
      return true;
    if (B && *B)
      return true;
    if (A && B)
      return !*A || *B;
    return std::nullopt;
  }
  case Formula::Kind::Iff: {
    auto A = evalPartial(F->lhs(), AtomValues);
    auto B = evalPartial(F->rhs(), AtomValues);
    if (A && B)
      return *A == *B;
    return std::nullopt;
  }
  default:
    assert(false && "temporal/update node in SMT formula");
    return std::nullopt;
  }
}

} // namespace

SatResult SmtSolver::checkFormula(const Formula *F, Assignment *Model) {
  // Collect the distinct predicate atoms.
  std::vector<const Term *> Atoms;
  std::unordered_set<const Term *> Seen;
  bool Unsupported = false;
  std::function<void(const Formula *)> Walk = [&](const Formula *Node) {
    if (Node->is(Formula::Kind::Pred)) {
      if (Seen.insert(Node->pred()).second)
        Atoms.push_back(Node->pred());
      return;
    }
    if (Node->isTemporal() || Node->is(Formula::Kind::Update)) {
      Unsupported = true;
      return;
    }
    for (const Formula *Kid : Node->children())
      Walk(Kid);
  };
  Walk(F);
  if (Unsupported)
    return SatResult::Unknown;

  std::vector<TheoryLiteral> Trail;
  try {
    return dpll(F, Atoms, 0, Trail, Model);
  } catch (const RationalOverflow &) {
    // Coefficients escaped int64 range mid-solve; Unknown is the only
    // sound verdict.
    return SatResult::Unknown;
  }
}

SatResult SmtSolver::dpll(const Formula *F, std::vector<const Term *> &Atoms,
                          size_t Index, std::vector<TheoryLiteral> &Trail,
                          Assignment *Model) {
  Dl.check();
  // Evaluate under the current partial assignment.
  std::unordered_map<const Term *, bool> AtomValues;
  for (const TheoryLiteral &L : Trail)
    AtomValues[L.Atom] = L.Positive;
  auto V = evalPartial(F, AtomValues);
  if (V && !*V)
    return SatResult::Unsat;
  if (V && *V)
    return theoryCheck(Trail, Model);

  // The formula is undetermined: there must be an unassigned atom left.
  assert(Index < Atoms.size() && "undetermined formula with no atoms left");
  bool SawUnknown = false;
  for (bool Polarity : {true, false}) {
    Trail.push_back({Atoms[Index], Polarity});
    SatResult R = dpll(F, Atoms, Index + 1, Trail, Model);
    Trail.pop_back();
    if (R == SatResult::Sat)
      return R;
    SawUnknown |= R == SatResult::Unknown;
  }
  return SawUnknown ? SatResult::Unknown : SatResult::Unsat;
}

SatResult SmtSolver::checkLiterals(const std::vector<TheoryLiteral> &Literals,
                                   Assignment *Model) {
  try {
    return theoryCheck(Literals, Model);
  } catch (const RationalOverflow &) {
    return SatResult::Unknown;
  }
}

SatResult SmtSolver::theoryCheck(const std::vector<TheoryLiteral> &Literals,
                                 Assignment *Model) {
  // Marker terms for boolean-valued EUF atoms.
  TermFactory Markers;
  const Term *TrueMark = Markers.apply("$true", Sort::Bool, {});
  const Term *FalseMark = Markers.apply("$false", Sort::Bool, {});

  CongruenceClosure CC;
  if (!CC.addDisequality(TrueMark, FalseMark))
    return SatResult::Unsat;

  // Variable sorts for the arithmetic core. Also register every term in
  // the congruence closure so that function congruence fires even for
  // terms that only occur inside arithmetic atoms (x = y, f(x) < f(y)).
  std::map<std::string, Sort> VarSorts;
  for (const TheoryLiteral &L : Literals) {
    collectTypedSignals(L.Atom, VarSorts);
    collectPurifiedVars(L.Atom, VarSorts);
    CC.add(L.Atom);
  }

  ArithmeticCore Arith(VarSorts, Dl);
  std::vector<std::pair<const Term *, const Term *>> NumericEqualities;

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

    if (isNumericComparison(Atom)) {
      const std::string &Op = Atom->name();
      bool IsEq = Op == "=";
      bool IsNeq = Op == "!=";
      bool WantEqual = (IsEq && L.Positive) || (IsNeq && !L.Positive);
      bool WantDistinct = (IsEq && !L.Positive) || (IsNeq && L.Positive);
      auto LHS = LinearExpr::fromTerm(Atom->args()[0]);
      auto RHS = LinearExpr::fromTerm(Atom->args()[1]);
      if (!LHS || !RHS)
        return SatResult::Unknown; // Nonlinear.
      if (WantEqual) {
        Arith.Atoms.push_back({*LHS - *RHS, LinearRel::EQ});
        NumericEqualities.emplace_back(Atom->args()[0], Atom->args()[1]);
        continue;
      }
      if (WantDistinct) {
        Arith.Disequalities.push_back(*LHS - *RHS);
        continue;
      }
      auto MaybeAtom = LinearAtom::fromComparison(Atom, !L.Positive);
      if (!MaybeAtom)
        return SatResult::Unknown;
      Arith.Atoms.push_back(*MaybeAtom);
      continue;
    }

    // EUF equalities/disequalities over non-numeric operands.
    if (Atom->isApply() && Atom->arity() == 2 &&
        (Atom->name() == "=" || Atom->name() == "!=")) {
      bool WantEqual = (Atom->name() == "=") == L.Positive;
      const Term *A = Atom->args()[0];
      const Term *B = Atom->args()[1];
      bool Ok = WantEqual ? CC.merge(A, B) : CC.addDisequality(A, B);
      if (!Ok)
        return SatResult::Unsat;
      continue;
    }

    // Uninterpreted boolean predicate or boolean signal: tie the atom to
    // a truth marker so congruence decides clashes like p(x) && !p(y)
    // with x = y.
    if (!CC.merge(Atom, L.Positive ? TrueMark : FalseMark))
      return SatResult::Unsat;
  }

  // Nelson-Oppen forward direction: explicit numeric equalities
  // participate in congruence; congruence-derived equalities between
  // numeric terms feed back into the arithmetic core.
  for (const auto &[A, B] : NumericEqualities)
    if (!CC.merge(A, B))
      return SatResult::Unsat;
  for (const auto &[A, B] : CC.equalPairs()) {
    if (!isNumericSort(A->sort()) || !isNumericSort(B->sort()))
      continue;
    auto LHS = LinearExpr::fromTerm(A);
    auto RHS = LinearExpr::fromTerm(B);
    if (LHS && RHS)
      Arith.Atoms.push_back({*LHS - *RHS, LinearRel::EQ});
  }

  std::map<std::string, Rational> NumericModel;
  SatResult R = Arith.solve(Model ? &NumericModel : nullptr);
  if (R != SatResult::Sat)
    return R;

  if (Model) {
    for (const auto &[Name, VarSort] : VarSorts) {
      // Skip purified application variables: only signals get values.
      if (Name.find('(') != std::string::npos)
        continue;
      if (VarSort == Sort::Int || VarSort == Sort::Real) {
        auto It = NumericModel.find(Name);
        (*Model)[Name] =
            Value::number(It != NumericModel.end() ? It->second : Rational(0));
      }
    }
    // Boolean and opaque signals from the EUF side. Values must respect
    // the congruence classes: signals asserted equal (directly or via
    // congruence) get the same symbol, and boolean signals take the
    // truth marker their class was merged with, so the returned model
    // actually satisfies the EUF literals it came from.
    std::map<const Term *, std::string> ClassSymbol;
    std::function<void(const Term *)> AssignEuf = [&](const Term *T) {
      if (T->isSignal() && !Model->count(T->name())) {
        if (T->sort() == Sort::Bool) {
          (*Model)[T->name()] = Value::boolean(CC.areEqual(T, TrueMark));
        } else if (T->sort() == Sort::Opaque) {
          const Term *Rep = CC.find(T);
          auto It = ClassSymbol.find(Rep);
          if (It == ClassSymbol.end())
            It = ClassSymbol.emplace(Rep, "@" + T->name()).first;
          (*Model)[T->name()] = Value::symbol(It->second);
        }
      }
      for (const Term *Arg : T->args())
        AssignEuf(Arg);
    };
    for (const TheoryLiteral &L : Literals)
      AssignEuf(L.Atom);
  }
  return SatResult::Sat;
}
