//===- theory/SmtSolver.h - Quantifier-free SMT driver ---------*- C++ -*-===//
///
/// \file
/// A small SMT solver for the quantifier-free fragments the temos
/// pipeline emits: boolean combinations of (a) linear Int/Real
/// comparisons and (b) EUF atoms (equalities over opaque terms, boolean
/// uninterpreted predicates). Architecture:
///
///  * a DPLL-style case split over the boolean structure,
///  * simplex (theory/Simplex.h) with branch-and-bound for integers,
///  * congruence closure (theory/CongruenceClosure.h) for EUF,
///  * one-directional Nelson-Oppen propagation: equalities derived by
///    congruence over numeric-sorted terms are forwarded to simplex.
///
/// Completeness note: equalities *implied* by arithmetic (x <= y && y <=
/// x) are not forwarded back to the EUF side, so some mixed UF+LIA
/// inputs may be reported Sat that are really Unsat. All pipeline uses
/// are safe in that direction: consistency checking (Sec. 4.2) only acts
/// on proven-Unsat answers, and SyGuS verification treats non-Unsat
/// counterexample queries as candidate rejection.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_THEORY_SMTSOLVER_H
#define TEMOS_THEORY_SMTSOLVER_H

#include "logic/Formula.h"
#include "logic/Specification.h"
#include "support/Deadline.h"
#include "theory/Value.h"

#include <vector>

namespace temos {

/// Three-valued satisfiability verdict.
enum class SatResult {
  Sat,
  Unsat,
  /// Resource limit hit (branch-and-bound depth); treat conservatively.
  Unknown,
};

/// A theory literal: a Bool-sorted term, possibly negated.
struct TheoryLiteral {
  const Term *Atom = nullptr;
  bool Positive = true;
};

/// Quantifier-free SMT solver over the specification's theory.
///
/// Instances keep no state between queries, which the solver-service
/// layer exploits: clone() hands every pool worker its own instance for
/// the price of copying the theory tag.
class SmtSolver {
public:
  explicit SmtSolver(Theory Th) : Th(Th) {}

  Theory theory() const { return Th; }

  /// A fresh, independent solver for the same theory. Cheap by design;
  /// the solver service clones one prototype per query/worker. Clones
  /// share the prototype's deadline token: tripping it cancels every
  /// in-flight query.
  SmtSolver clone() const {
    SmtSolver S(Th);
    S.Dl = Dl;
    return S;
  }

  /// Attaches a cooperative deadline. The DPLL case split, the
  /// disequality splitter, branch-and-bound, and the simplex pivot loop
  /// all poll it and throw DeadlineExpired when the budget is gone.
  /// A default Deadline (never expires) detaches.
  void setDeadline(const Deadline &D) { Dl = D; }

  /// Satisfiability of the conjunction of \p Literals. On Sat and
  /// non-null \p Model, fills values for every signal occurring in the
  /// literals.
  SatResult checkLiterals(const std::vector<TheoryLiteral> &Literals,
                          Assignment *Model = nullptr);

  /// Satisfiability of a boolean-structure formula whose atoms are
  /// predicate terms (no temporal operators, no update terms).
  SatResult checkFormula(const Formula *F, Assignment *Model = nullptr);

private:
  SatResult dpll(const Formula *F, std::vector<const Term *> &Atoms,
                 size_t Index, std::vector<TheoryLiteral> &Trail,
                 Assignment *Model);
  SatResult theoryCheck(const std::vector<TheoryLiteral> &Literals,
                        Assignment *Model);

  Theory Th;
  Deadline Dl;
};

} // namespace temos

#endif // TEMOS_THEORY_SMTSOLVER_H
