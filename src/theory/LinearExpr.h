//===- theory/LinearExpr.h - Linear arithmetic expressions -----*- C++ -*-===//
///
/// \file
/// Linear polynomials over dense variable ids with exact rational
/// coefficients, and extraction of linear form from TSL-MT terms.
///
/// A polynomial is a flat vector of (variable, coefficient) entries
/// sorted by variable id, with no zero coefficient, plus a constant. The
/// ids belong to whoever numbers the variables: each SMT theory check
/// numbers its own (SmtSolver.cpp), and the simplex core works on those
/// numbers directly.
///
/// Numeric-sorted applications of *uninterpreted* functions are atomic
/// variables like signals, which is the purification step of a
/// Nelson-Oppen-style combination: the congruence-closure layer later
/// links such variables with equality constraints. fromTerm asks its
/// caller for the id of every atomic term it meets.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_THEORY_LINEAREXPR_H
#define TEMOS_THEORY_LINEAREXPR_H

#include "logic/Term.h"
#include "support/Rational.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace temos {

/// A variable of one arithmetic problem, numbered densely from 0.
using VarId = uint32_t;

/// A linear polynomial: sum of coefficient * variable plus a constant.
class LinearExpr {
public:
  struct Entry {
    VarId Var;
    Rational Coeff;
  };

  /// Maps an atomic numeric term (a signal or a purified application)
  /// to its variable.
  using VarOf = std::function<VarId(const Term *)>;

  LinearExpr() = default;
  explicit LinearExpr(const Rational &Constant) : Constant(Constant) {}

  static LinearExpr variable(VarId Var) {
    LinearExpr E;
    E.Entries.push_back({Var, Rational(1)});
    return E;
  }

  /// The entries, sorted by variable, none with a zero coefficient.
  const std::vector<Entry> &entries() const { return Entries; }
  const Rational &constant() const { return Constant; }

  bool isConstant() const { return Entries.empty(); }

  LinearExpr operator+(const LinearExpr &RHS) const;
  LinearExpr operator-(const LinearExpr &RHS) const;
  LinearExpr scaled(const Rational &Factor) const;

  /// Extracts the linear form of \p T; \p Var numbers its signals and
  /// numeric uninterpreted applications (purification). Returns nullopt
  /// for genuinely nonlinear terms (variable * variable) and for
  /// non-numeric terms.
  static std::optional<LinearExpr> fromTerm(const Term *T, const VarOf &Var);

private:
  std::vector<Entry> Entries;
  Rational Constant;
};

/// Relations of linear atoms.
enum class LinearRel { LE, LT, GE, GT, EQ };

/// Negation of a relation: !(a <= b) is a > b, etc.
LinearRel negateRel(LinearRel Rel);

/// A linear atom: Expr Rel 0 (normalized, constant folded into Expr).
struct LinearAtom {
  LinearExpr Expr;
  LinearRel Rel = LinearRel::LE;

  /// Builds the atom for a comparison term (<, <=, >, >=, = over numeric
  /// operands). Returns nullopt when \p T is not such a comparison, the
  /// operands are not linear, or \p Negated asks for a disequality.
  static std::optional<LinearAtom>
  fromComparison(const Term *T, bool Negated, const LinearExpr::VarOf &Var);
};

} // namespace temos

#endif // TEMOS_THEORY_LINEAREXPR_H
