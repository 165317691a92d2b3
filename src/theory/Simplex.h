//===- theory/Simplex.h - General simplex for linear arithmetic *- C++ -*-===//
///
/// \file
/// A general simplex solver in the style of Dutertre and de Moura ("A
/// fast linear-arithmetic solver for DPLL(T)", CAV 2006). Variables range
/// over delta-rationals so strict inequalities are represented exactly
/// (x < c is x <= c - delta). Used by SmtSolver for LRA conjunctions and,
/// under branch-and-bound, for LIA.
///
/// Variables are dense ids in creation order: the caller's variables
/// first (addVariable), then one slack per asserted atom that needs one
/// (needsSlack). Pivoting follows Bland's rule on those ids, so the ids
/// decide which model check() finds. The tableau is dense: one row of
/// coefficients per basic variable, one column per variable. The object
/// is copyable, and a copy is a few flat vectors; branch-and-bound and
/// the disequality splits snapshot the whole state.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_THEORY_SIMPLEX_H
#define TEMOS_THEORY_SIMPLEX_H

#include "support/Deadline.h"
#include "support/Rational.h"
#include "theory/LinearExpr.h"

#include <optional>
#include <vector>

namespace temos {

/// General simplex over delta-rationals.
class Simplex {
public:
  /// Creates the next variable; ids count up from 0.
  VarId addVariable(bool IsInt);

  /// Makes room for \p Variables variables, slacks included, before any
  /// atom is asserted.
  void reserve(size_t Variables);

  /// True when asserting an atom over \p E creates a slack variable:
  /// \p E is not ground and not a single variable with coefficient 1.
  static bool needsSlack(const LinearExpr &E);

  /// Asserts \p Atom, whose variables must exist. Returns false on an
  /// immediately detected bound conflict.
  bool assertAtom(const LinearAtom &Atom);

  /// Runs the simplex check. True = satisfiable over the rationals.
  bool check();

  /// Current assignment of \p X; only meaningful after check() returned
  /// true.
  const DeltaRational &value(VarId X) const { return Vars[X].Assignment; }

  /// All integer-declared variables whose current assignment is not
  /// integral (candidates for branch-and-bound), in id order.
  std::vector<VarId> fractionalIntVariables() const;

  /// Asserts X <= Bound (upper) or X >= Bound (lower); used by
  /// branch-and-bound. Returns false on immediate conflict.
  bool assertVariableBound(VarId X, bool Upper, const DeltaRational &Bound);

  /// Concretizes delta-rational assignments into plain rationals by
  /// choosing a small enough epsilon > 0; indexed by variable. Only valid
  /// after a successful check().
  std::vector<Rational> concreteModel() const;

  /// Attaches a cooperative deadline polled once per pivot iteration;
  /// check() throws DeadlineExpired when it trips. Copies (the
  /// branch-and-bound snapshots) share the same token.
  void setDeadline(const Deadline &D) { Dl = D; }

private:
  struct VarInfo {
    bool IsInt = false;
    bool IsBasic = false;
    std::optional<DeltaRational> Lower;
    std::optional<DeltaRational> Upper;
    DeltaRational Assignment;
  };

  Rational &at(size_t Row, VarId X) { return Coeffs[Row * Stride + X]; }
  const Rational &at(size_t Row, VarId X) const {
    return Coeffs[Row * Stride + X];
  }
  size_t rowOf(VarId Basic) const;
  bool assertBound(VarId X, bool Upper, const DeltaRational &Bound);
  void updateNonbasic(VarId X, const DeltaRational &NewValue);
  void pivotAndUpdate(size_t Row, VarId Nonbasic, const DeltaRational &V);
  void pivot(size_t Row, VarId Nonbasic);

  std::vector<VarInfo> Vars;
  /// Basic[R] is the basic variable that row R defines as a combination
  /// of nonbasic variables, with coefficients Coeffs[R * Stride + X];
  /// Stride >= Vars.size(), and the columns of basic variables are zero.
  std::vector<VarId> Basic;
  std::vector<Rational> Coeffs;
  size_t Stride = 0;
  Deadline Dl;
};

} // namespace temos

#endif // TEMOS_THEORY_SIMPLEX_H
