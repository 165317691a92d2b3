//===- theory/Simplex.h - General simplex for linear arithmetic *- C++ -*-===//
///
/// \file
/// A general simplex solver in the style of Dutertre and de Moura ("A
/// fast linear-arithmetic solver for DPLL(T)", CAV 2006). Variables range
/// over delta-rationals so strict inequalities are represented exactly
/// (x < c is x <= c - delta). Used by SmtSolver for LRA conjunctions and,
/// under branch-and-bound, for LIA.
///
/// The object is copyable; branch-and-bound snapshots the whole state.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_THEORY_SIMPLEX_H
#define TEMOS_THEORY_SIMPLEX_H

#include "support/Deadline.h"
#include "support/Rational.h"
#include "theory/LinearExpr.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace temos {

/// General simplex over delta-rationals.
class Simplex {
public:
  using VarId = int;

  /// Returns the variable for \p Name, creating it on first use.
  VarId getVariable(const std::string &Name, bool IsInt);

  /// Asserts \p Atom (over named variables; variables are created with
  /// \p IntByDefault integrality when unseen). Returns false on an
  /// immediately detected bound conflict.
  bool assertAtom(const LinearAtom &Atom, bool IntByDefault);

  /// Runs the simplex check. True = satisfiable over the rationals.
  bool check();

  /// Current assignment of \p Name; only meaningful after check()
  /// returned true.
  DeltaRational value(const std::string &Name) const;

  /// All integer-declared variables whose current assignment is not
  /// integral (candidates for branch-and-bound).
  std::vector<std::string> fractionalIntVariables() const;

  /// Asserts Name <= Bound (upper) or Name >= Bound (lower); used by
  /// branch-and-bound. Returns false on immediate conflict.
  bool assertVariableBound(const std::string &Name, bool Upper,
                           const DeltaRational &Bound);

  /// Concretizes delta-rational assignments into plain rationals by
  /// choosing a small enough epsilon > 0. Only valid after a successful
  /// check().
  std::map<std::string, Rational> concreteModel() const;

  /// Attaches a cooperative deadline polled once per pivot iteration;
  /// check() throws DeadlineExpired when it trips. Copies (the
  /// branch-and-bound snapshots) share the same token.
  void setDeadline(const Deadline &D) { Dl = D; }

private:
  struct VarInfo {
    std::string Name;
    bool IsInt = false;
    std::optional<DeltaRational> Lower;
    std::optional<DeltaRational> Upper;
    DeltaRational Assignment;
    bool IsBasic = false;
  };

  VarId newVariable(const std::string &Name, bool IsInt);
  bool assertBound(VarId X, bool Upper, const DeltaRational &Bound);
  void updateNonbasic(VarId X, const DeltaRational &NewValue);
  void pivotAndUpdate(VarId Basic, VarId Nonbasic, const DeltaRational &V);
  void pivot(VarId Basic, VarId Nonbasic);
  DeltaRational rowValue(const std::map<VarId, Rational> &Row) const;

  std::vector<VarInfo> Vars;
  std::map<std::string, VarId> VarIds;
  /// Rows of basic variables: Basic -> (Nonbasic -> coefficient).
  std::map<VarId, std::map<VarId, Rational>> Rows;
  int SlackCounter = 0;
  Deadline Dl;
};

} // namespace temos

#endif // TEMOS_THEORY_SIMPLEX_H
