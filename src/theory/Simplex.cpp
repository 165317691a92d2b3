//===- theory/Simplex.cpp - General simplex for linear arithmetic ---------===//

#include "theory/Simplex.h"

#include <algorithm>
#include <cassert>

using namespace temos;

Simplex::VarId Simplex::newVariable(const std::string &Name, bool IsInt) {
  VarId Id = static_cast<VarId>(Vars.size());
  VarInfo Info;
  Info.Name = Name;
  Info.IsInt = IsInt;
  Vars.push_back(Info);
  VarIds[Name] = Id;
  return Id;
}

Simplex::VarId Simplex::getVariable(const std::string &Name, bool IsInt) {
  auto It = VarIds.find(Name);
  if (It != VarIds.end())
    return It->second;
  return newVariable(Name, IsInt);
}

DeltaRational Simplex::rowValue(const std::map<VarId, Rational> &Row) const {
  DeltaRational Sum;
  for (const auto &[Var, Coeff] : Row)
    Sum = Sum + Vars[Var].Assignment * Coeff;
  return Sum;
}

bool Simplex::assertAtom(const LinearAtom &Atom, bool IntByDefault) {
  // Ensure all mentioned variables exist.
  std::map<VarId, Rational> Combination;
  for (const auto &[Name, Coeff] : Atom.Expr.coefficients()) {
    VarId X = getVariable(Name, IntByDefault);
    Combination[X] = Coeff;
  }

  if (Combination.empty()) {
    // Ground atom: constant Rel 0.
    const Rational &C = Atom.Expr.constant();
    switch (Atom.Rel) {
    case LinearRel::LE:
      return C <= Rational(0);
    case LinearRel::LT:
      return C < Rational(0);
    case LinearRel::GE:
      return C >= Rational(0);
    case LinearRel::GT:
      return C > Rational(0);
    case LinearRel::EQ:
      return C.isZero();
    }
  }

  // Determine the target variable to bound: a fresh slack variable
  // s = sum(coeff * x), unless the combination is a single variable with
  // coefficient 1.
  VarId Target;
  Rational TargetScale(1);
  if (Combination.size() == 1 && Combination.begin()->second == Rational(1)) {
    Target = Combination.begin()->first;
  } else {
    std::string SlackName = "$slack" + std::to_string(SlackCounter++);
    Target = newVariable(SlackName, /*IsInt=*/false);
    // Substitute rows of basic variables so the new row mentions only
    // nonbasic variables.
    std::map<VarId, Rational> Row;
    for (const auto &[Var, Coeff] : Combination) {
      if (Vars[Var].IsBasic) {
        for (const auto &[Inner, InnerCoeff] : Rows[Var]) {
          Rational &Slot = Row[Inner];
          Slot += Coeff * InnerCoeff;
          if (Slot.isZero())
            Row.erase(Inner);
        }
      } else {
        Rational &Slot = Row[Var];
        Slot += Coeff;
        if (Slot.isZero())
          Row.erase(Var);
      }
    }
    Vars[Target].IsBasic = true;
    Rows[Target] = Row;
    Vars[Target].Assignment = rowValue(Row);
  }
  (void)TargetScale;

  // The atom is: Target + Expr.constant Rel 0, i.e. Target Rel -constant.
  Rational Bound = -Atom.Expr.constant();
  switch (Atom.Rel) {
  case LinearRel::LE:
    return assertBound(Target, /*Upper=*/true, DeltaRational(Bound));
  case LinearRel::LT:
    return assertBound(Target, /*Upper=*/true,
                       DeltaRational(Bound, Rational(-1)));
  case LinearRel::GE:
    return assertBound(Target, /*Upper=*/false, DeltaRational(Bound));
  case LinearRel::GT:
    return assertBound(Target, /*Upper=*/false,
                       DeltaRational(Bound, Rational(1)));
  case LinearRel::EQ:
    return assertBound(Target, /*Upper=*/true, DeltaRational(Bound)) &&
           assertBound(Target, /*Upper=*/false, DeltaRational(Bound));
  }
  return false;
}

bool Simplex::assertVariableBound(const std::string &Name, bool Upper,
                                  const DeltaRational &Bound) {
  VarId X = getVariable(Name, /*IsInt=*/true);
  return assertBound(X, Upper, Bound);
}

bool Simplex::assertBound(VarId X, bool Upper, const DeltaRational &Bound) {
  VarInfo &Info = Vars[X];
  if (Upper) {
    if (Info.Upper && *Info.Upper <= Bound)
      return true; // No tightening.
    if (Info.Lower && Bound < *Info.Lower)
      return false; // Immediate conflict.
    Info.Upper = Bound;
    if (!Info.IsBasic && Bound < Info.Assignment)
      updateNonbasic(X, Bound);
    return true;
  }
  if (Info.Lower && Bound <= *Info.Lower)
    return true;
  if (Info.Upper && *Info.Upper < Bound)
    return false;
  Info.Lower = Bound;
  if (!Info.IsBasic && Info.Assignment < Bound)
    updateNonbasic(X, Bound);
  return true;
}

void Simplex::updateNonbasic(VarId X, const DeltaRational &NewValue) {
  assert(!Vars[X].IsBasic && "update() requires a nonbasic variable");
  DeltaRational Delta = NewValue - Vars[X].Assignment;
  for (auto &[Basic, Row] : Rows) {
    auto It = Row.find(X);
    if (It != Row.end())
      Vars[Basic].Assignment = Vars[Basic].Assignment + Delta * It->second;
  }
  Vars[X].Assignment = NewValue;
}

void Simplex::pivot(VarId Basic, VarId Nonbasic) {
  std::map<VarId, Rational> Row = Rows[Basic];
  Rows.erase(Basic);
  Rational A = Row[Nonbasic];
  assert(!A.isZero() && "pivot on zero coefficient");

  // Solve x_basic = ... for x_nonbasic:
  //   x_nonbasic = (1/A) x_basic - sum_{i != nonbasic} (c_i / A) x_i.
  std::map<VarId, Rational> NewRow;
  NewRow[Basic] = Rational(1) / A;
  for (const auto &[Var, Coeff] : Row) {
    if (Var == Nonbasic)
      continue;
    NewRow[Var] = -(Coeff / A);
  }
  Vars[Basic].IsBasic = false;
  Vars[Nonbasic].IsBasic = true;
  Rows[Nonbasic] = NewRow;

  // Substitute into the other rows.
  for (auto &[OtherBasic, OtherRow] : Rows) {
    if (OtherBasic == Nonbasic)
      continue;
    auto It = OtherRow.find(Nonbasic);
    if (It == OtherRow.end())
      continue;
    Rational Factor = It->second;
    OtherRow.erase(It);
    for (const auto &[Var, Coeff] : NewRow) {
      Rational &Slot = OtherRow[Var];
      Slot += Factor * Coeff;
      if (Slot.isZero())
        OtherRow.erase(Var);
    }
  }
}

void Simplex::pivotAndUpdate(VarId Basic, VarId Nonbasic,
                             const DeltaRational &V) {
  Rational A = Rows[Basic][Nonbasic];
  DeltaRational Theta = (V - Vars[Basic].Assignment) * (Rational(1) / A);
  Vars[Basic].Assignment = V;
  Vars[Nonbasic].Assignment = Vars[Nonbasic].Assignment + Theta;
  for (const auto &[OtherBasic, Row] : Rows) {
    if (OtherBasic == Basic)
      continue;
    auto It = Row.find(Nonbasic);
    if (It != Row.end())
      Vars[OtherBasic].Assignment =
          Vars[OtherBasic].Assignment + Theta * It->second;
  }
  pivot(Basic, Nonbasic);
}

bool Simplex::check() {
  for (;;) {
    Dl.check();
    // Bland's rule: smallest violating basic variable.
    VarId Violating = -1;
    bool BelowLower = false;
    for (const auto &[Basic, Row] : Rows) {
      (void)Row;
      const VarInfo &Info = Vars[Basic];
      if (Info.Lower && Info.Assignment < *Info.Lower) {
        Violating = Basic;
        BelowLower = true;
        break;
      }
      if (Info.Upper && *Info.Upper < Info.Assignment) {
        Violating = Basic;
        BelowLower = false;
        break;
      }
    }
    if (Violating < 0)
      return true;

    const std::map<VarId, Rational> &Row = Rows[Violating];
    VarId Pivot = -1;
    for (const auto &[Var, Coeff] : Row) {
      const VarInfo &Info = Vars[Var];
      bool Suitable;
      if (BelowLower)
        Suitable = (Coeff.isPositive() &&
                    (!Info.Upper || Info.Assignment < *Info.Upper)) ||
                   (Coeff.isNegative() &&
                    (!Info.Lower || *Info.Lower < Info.Assignment));
      else
        Suitable = (Coeff.isNegative() &&
                    (!Info.Upper || Info.Assignment < *Info.Upper)) ||
                   (Coeff.isPositive() &&
                    (!Info.Lower || *Info.Lower < Info.Assignment));
      if (Suitable && (Pivot < 0 || Var < Pivot))
        Pivot = Var;
    }
    if (Pivot < 0)
      return false; // No suitable pivot: UNSAT.

    const VarInfo &Info = Vars[Violating];
    pivotAndUpdate(Violating, Pivot, BelowLower ? *Info.Lower : *Info.Upper);
  }
}

DeltaRational Simplex::value(const std::string &Name) const {
  auto It = VarIds.find(Name);
  assert(It != VarIds.end() && "value() of unknown variable");
  return Vars[It->second].Assignment;
}

std::vector<std::string> Simplex::fractionalIntVariables() const {
  std::vector<std::string> Result;
  for (const VarInfo &Info : Vars) {
    if (!Info.IsInt)
      continue;
    bool Integral =
        Info.Assignment.delta().isZero() && Info.Assignment.real().isInteger();
    if (!Integral)
      Result.push_back(Info.Name);
  }
  return Result;
}

std::map<std::string, Rational> Simplex::concreteModel() const {
  // Choose epsilon small enough that every assignment (r + d*eps) stays
  // within its bounds (br + bd*eps). For each binding constraint derive
  // an upper limit on eps.
  Rational Epsilon(1);
  auto Limit = [&](const DeltaRational &Value, const DeltaRational &Bound,
                   bool Upper) {
    // Need: value.real + value.delta*eps <= bound.real + bound.delta*eps
    // (or >= for lower bounds).
    Rational DeltaGap =
        Upper ? Value.delta() - Bound.delta() : Bound.delta() - Value.delta();
    Rational RealGap =
        Upper ? Bound.real() - Value.real() : Value.real() - Bound.real();
    if (DeltaGap.isPositive()) {
      assert(RealGap >= Rational(0) && "bound violated in concretization");
      if (!RealGap.isZero()) {
        Rational Candidate = RealGap / DeltaGap;
        if (Candidate < Epsilon)
          Epsilon = Candidate;
      } else {
        // RealGap == 0 with positive DeltaGap would violate the bound for
        // every eps > 0; check() guarantees this cannot happen.
        assert(false && "strict bound violated in concretization");
      }
    }
  };
  for (const VarInfo &Info : Vars) {
    if (Info.Upper)
      Limit(Info.Assignment, *Info.Upper, /*Upper=*/true);
    if (Info.Lower)
      Limit(Info.Assignment, *Info.Lower, /*Upper=*/false);
  }
  // Halve once more for safety margin.
  Epsilon = Epsilon * Rational(1, 2);

  std::map<std::string, Rational> Model;
  for (const VarInfo &Info : Vars) {
    if (Info.Name.rfind("$slack", 0) == 0)
      continue;
    Model[Info.Name] =
        Info.Assignment.real() + Info.Assignment.delta() * Epsilon;
  }
  return Model;
}
