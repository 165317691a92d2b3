//===- automata/Tableau.h - LTL tableau construction -----------*- C++ -*-===//
///
/// \file
/// On-the-fly tableau construction from (underapproximated) TSL formulas
/// to nondeterministic Buechi automata, standing in for the
/// tsltools+Strix pipeline of the paper's implementation (Sec. 5.1).
///
/// The construction follows the classic expansion-law scheme (Gerth et
/// al. / Couvreur style): a state is the set of formulas that must hold
/// now; expansion rewrites it into branches of (literals, next-state
/// obligations); each Until/Finally subformula contributes one
/// generalized acceptance set containing the transitions that do not
/// defer it. The generalized automaton is then degeneralized with the
/// usual level counter into a single transition-based Buechi condition.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_AUTOMATA_TABLEAU_H
#define TEMOS_AUTOMATA_TABLEAU_H

#include "automata/Nba.h"
#include "logic/Specification.h"
#include "support/Deadline.h"

#include <memory>

namespace temos {

/// Statistics of one construction.
struct TableauStats {
  size_t GeneralizedStates = 0;
  size_t AcceptanceSets = 0;
  size_t NbaStates = 0;
  size_t NbaTransitions = 0;
  /// Construction aborted because a resource budget was exceeded; the
  /// returned automaton is unusable and callers must report Unknown.
  bool BudgetExceeded = false;
  /// The budget that tripped was the cooperative deadline (wall clock),
  /// not a state/transition count. Only meaningful with BudgetExceeded.
  bool TimedOut = false;
};

/// Resource budgets for the construction (exceeded -> BudgetExceeded).
struct TableauLimits {
  size_t MaxGeneralizedStates = 20000;
  size_t MaxTransitions = 2000000;
  /// Cooperative deadline polled once per expanded state and per
  /// degeneralization wave. NOT part of the construction's identity:
  /// cache keys (the engine's limitsKey) cover only the numeric budgets
  /// above, which is sound because a deadline can only abort a build
  /// (never-cached) -- it cannot change a completed automaton.
  Deadline Dl;
};

class TableauCache;

/// Builds the NBA of \p F (converted to NNF internally) over \p AB.
/// Every predicate and update atom of \p F must be registered in the
/// alphabet. With a non-null \p Cache, per-state expansions are served
/// from / recorded into the cache (see TableauCache).
Nba buildNba(const Formula *F, Context &Ctx, const Alphabet &AB,
             TableauStats *Stats = nullptr,
             const TableauLimits &Limits = {},
             TableauCache *Cache = nullptr);

/// Cross-build memo for the tableau's per-state expansion work.
///
/// A tableau state (a set of obligations) expands to the same compiled
/// branches — guard, successor obligation set, deferred
/// acceptance formulas — regardless of the *top-level* formula being
/// translated, because expansion only ever looks at the state set
/// itself. Keys combine the alphabet signature (guards compile against
/// concrete bit/choice indices) with the state's formula-id key, so a
/// state that recurs in a later build replays its expansion instead of
/// re-deriving it. (Measured on the bundled rows, eager and lazy, no
/// state recurs: a grown formula's tableau states differ from the
/// earlier formula's, and the cache serves no hit.)
///
/// The cache is tied to one Context (formula ids are interning indices):
/// never share an instance across Contexts. Not thread-safe; the
/// synthesis engine uses it from the construction thread only.
class TableauCache {
public:
  TableauCache();
  ~TableauCache();
  TableauCache(const TableauCache &) = delete;
  TableauCache &operator=(const TableauCache &) = delete;

  /// States served from the cache across all builds.
  size_t hits() const;
  /// States expanded from scratch (and recorded).
  size_t misses() const;
  /// Cached expansion entries.
  size_t size() const;
  void clear();

private:
  friend Nba buildNba(const Formula *, Context &, const Alphabet &,
                      TableauStats *, const TableauLimits &, TableauCache *);
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// LTL satisfiability of \p F under the underapproximation: does some
/// trace (sequence of letters) satisfy it? Used by the refinement loop's
/// CHECK-SAT (Alg. 4) and by tests.
bool isSatisfiable(const Formula *F, Context &Ctx, const Alphabet &AB);

} // namespace temos

#endif // TEMOS_AUTOMATA_TABLEAU_H
