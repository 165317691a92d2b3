//===- theory/Simplex.cpp - General simplex for linear arithmetic ---------===//

#include "theory/Simplex.h"

#include <algorithm>
#include <cassert>

using namespace temos;

VarId Simplex::addVariable(bool IsInt) {
  VarId Id = static_cast<VarId>(Vars.size());
  Vars.push_back({IsInt, false, std::nullopt, std::nullopt, DeltaRational()});
  if (Vars.size() > Stride) {
    // Widen every row; the new columns start at zero.
    size_t Wider = std::max<size_t>(8, 2 * Stride);
    std::vector<Rational> Widened(Basic.size() * Wider);
    for (size_t R = 0; R < Basic.size(); ++R)
      std::copy_n(Coeffs.begin() + R * Stride, Stride,
                  Widened.begin() + R * Wider);
    Coeffs = std::move(Widened);
    Stride = Wider;
  }
  return Id;
}

void Simplex::reserve(size_t Variables) {
  assert(Basic.empty() && "reserve() after an atom");
  Vars.reserve(Variables);
  Stride = std::max(Stride, Variables);
}

bool Simplex::needsSlack(const LinearExpr &E) {
  const auto &Entries = E.entries();
  return !Entries.empty() &&
         !(Entries.size() == 1 && Entries[0].Coeff == Rational(1));
}

size_t Simplex::rowOf(VarId X) const {
  assert(Vars[X].IsBasic && "rowOf() of a nonbasic variable");
  return static_cast<size_t>(std::find(Basic.begin(), Basic.end(), X) -
                             Basic.begin());
}

bool Simplex::assertAtom(const LinearAtom &Atom) {
  const auto &Entries = Atom.Expr.entries();
  if (Entries.empty()) {
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

  // The variable to bound: the atom's single variable when its
  // coefficient is 1, else a fresh slack s = sum(coeff * x) whose row
  // mentions only nonbasic variables (basic ones are substituted).
  VarId Target;
  if (!needsSlack(Atom.Expr)) {
    Target = Entries[0].Var;
  } else {
    Target = addVariable(/*IsInt=*/false);
    const size_t Row = Basic.size();
    Basic.push_back(Target);
    Coeffs.resize(Coeffs.size() + Stride);
    for (const LinearExpr::Entry &E : Entries) {
      assert(E.Var < Target && "atom over an unknown variable");
      if (Vars[E.Var].IsBasic) {
        const size_t Inner = rowOf(E.Var);
        for (VarId X = 0; X < Target; ++X)
          if (!at(Inner, X).isZero())
            at(Row, X) += E.Coeff * at(Inner, X);
      } else {
        at(Row, E.Var) += E.Coeff;
      }
    }
    Vars[Target].IsBasic = true;
    DeltaRational Sum;
    for (VarId X = 0; X < Target; ++X)
      if (!at(Row, X).isZero())
        Sum = Sum + Vars[X].Assignment * at(Row, X);
    Vars[Target].Assignment = Sum;
  }

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

bool Simplex::assertVariableBound(VarId X, bool Upper,
                                  const DeltaRational &Bound) {
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
  for (size_t R = 0; R < Basic.size(); ++R)
    if (!at(R, X).isZero())
      Vars[Basic[R]].Assignment =
          Vars[Basic[R]].Assignment + Delta * at(R, X);
  Vars[X].Assignment = NewValue;
}

void Simplex::pivot(size_t Row, VarId Nonbasic) {
  const VarId Leaving = Basic[Row];
  const VarId Count = static_cast<VarId>(Vars.size());
  Rational A = at(Row, Nonbasic);
  assert(!A.isZero() && "pivot on zero coefficient");

  // Solve x_leaving = ... for x_nonbasic:
  //   x_nonbasic = (1/A) x_leaving - sum_{i != nonbasic} (c_i / A) x_i.
  for (VarId X = 0; X < Count; ++X)
    if (X != Nonbasic && !at(Row, X).isZero())
      at(Row, X) = -(at(Row, X) / A);
  at(Row, Leaving) = Rational(1) / A;
  at(Row, Nonbasic) = Rational(0);
  Vars[Leaving].IsBasic = false;
  Vars[Nonbasic].IsBasic = true;
  Basic[Row] = Nonbasic;

  // Substitute into the other rows.
  for (size_t Other = 0; Other < Basic.size(); ++Other) {
    if (Other == Row || at(Other, Nonbasic).isZero())
      continue;
    Rational Factor = at(Other, Nonbasic);
    at(Other, Nonbasic) = Rational(0);
    for (VarId X = 0; X < Count; ++X)
      if (!at(Row, X).isZero())
        at(Other, X) += Factor * at(Row, X);
  }
}

void Simplex::pivotAndUpdate(size_t Row, VarId Nonbasic,
                             const DeltaRational &V) {
  const VarId Leaving = Basic[Row];
  Rational A = at(Row, Nonbasic);
  DeltaRational Theta = (V - Vars[Leaving].Assignment) * (Rational(1) / A);
  Vars[Leaving].Assignment = V;
  Vars[Nonbasic].Assignment = Vars[Nonbasic].Assignment + Theta;
  for (size_t Other = 0; Other < Basic.size(); ++Other)
    if (Other != Row && !at(Other, Nonbasic).isZero())
      Vars[Basic[Other]].Assignment =
          Vars[Basic[Other]].Assignment + Theta * at(Other, Nonbasic);
  pivot(Row, Nonbasic);
}

bool Simplex::check() {
  for (;;) {
    Dl.check();
    // Bland's rule: the smallest violating basic variable...
    size_t Row = Basic.size();
    bool BelowLower = false;
    for (size_t R = 0; R < Basic.size(); ++R) {
      if (Row < Basic.size() && Basic[Row] < Basic[R])
        continue;
      const VarInfo &Info = Vars[Basic[R]];
      if (Info.Lower && Info.Assignment < *Info.Lower) {
        Row = R;
        BelowLower = true;
      } else if (Info.Upper && *Info.Upper < Info.Assignment) {
        Row = R;
        BelowLower = false;
      }
    }
    if (Row == Basic.size())
      return true;

    // ... and the smallest nonbasic variable that can move it.
    VarId Pivot = 0;
    bool Found = false;
    for (VarId X = 0; X < Vars.size() && !Found; ++X) {
      const Rational &Coeff = at(Row, X);
      if (Coeff.isZero())
        continue;
      const VarInfo &Info = Vars[X];
      bool CanRise = !Info.Upper || Info.Assignment < *Info.Upper;
      bool CanFall = !Info.Lower || *Info.Lower < Info.Assignment;
      Found = BelowLower ? (Coeff.isPositive() && CanRise) ||
                               (Coeff.isNegative() && CanFall)
                         : (Coeff.isNegative() && CanRise) ||
                               (Coeff.isPositive() && CanFall);
      Pivot = X;
    }
    if (!Found)
      return false; // No suitable pivot: UNSAT.

    const VarInfo &Info = Vars[Basic[Row]];
    pivotAndUpdate(Row, Pivot, BelowLower ? *Info.Lower : *Info.Upper);
  }
}

std::vector<VarId> Simplex::fractionalIntVariables() const {
  std::vector<VarId> Result;
  for (VarId X = 0; X < Vars.size(); ++X) {
    const VarInfo &Info = Vars[X];
    if (Info.IsInt && !(Info.Assignment.delta().isZero() &&
                        Info.Assignment.real().isInteger()))
      Result.push_back(X);
  }
  return Result;
}

std::vector<Rational> Simplex::concreteModel() const {
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

  std::vector<Rational> Model;
  Model.reserve(Vars.size());
  for (const VarInfo &Info : Vars)
    Model.push_back(Info.Assignment.real() +
                    Info.Assignment.delta() * Epsilon);
  return Model;
}
