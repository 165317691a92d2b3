//===- core/ConsistencyChecker.h - Consistency checking (4.2) --*- C++ -*-===//
///
/// \file
/// Consistency checking (Sec. 4.2): the environment can only produce
/// input valuations that are satisfiable in the background theory, but
/// the reactive layer treats predicates as opaque inputs. For every
/// theory-unsatisfiable combination of predicate literals, of either
/// polarity, this pass emits the assumption G !(l1 && ... && lk), e.g.
/// G !(x < y && y < x) for the mutex example and
/// G !(!(x <= 10) && !(x > 10)) for a pair of complementary
/// predicates; a valid predicate p (core {!p}) comes out as G p. Every
/// such assumption is an input-only invariant, which the tableau turns
/// into the automaton's input-letter filter (automata/Tableau.h).
///
/// The paper enumerates the full powerset (O(2^n) SMT queries). We
/// support that, plus a minimal-core mode that suppresses subsumed
/// combinations (if {a,b} is unsat, {a,b,c} adds nothing) -- the
/// ablation bench compares the two. A combination never holds a
/// predicate in both polarities.
///
/// The subset checks are independent SMT queries, so when a
/// SolverService with workers is supplied they are fanned out across
/// its pool, one combination size at a time: the combinations of one
/// size run in parallel, skipping those a smaller core subsumes, and
/// their cores are accepted in the serial order before the next size.
/// The queries and the emitted assumption list are therefore the same
/// for every thread count (see docs/ARCHITECTURE.md for the argument).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_CORE_CONSISTENCYCHECKER_H
#define TEMOS_CORE_CONSISTENCYCHECKER_H

#include "logic/Specification.h"
#include "support/Deadline.h"
#include "theory/SmtSolver.h"
#include "theory/SolverService.h"

#include <vector>

namespace temos {

/// Consistency-checking tunables.
struct ConsistencyOptions {
  /// Largest literal combination checked (every combination up to this
  /// many literals). The paper's powerset corresponds to the predicate
  /// count.
  unsigned MaxSubsetSize = 3;
  /// Emit only minimal unsatisfiable combinations (supersets of an
  /// already-unsat set are skipped). Off reproduces the paper's plain
  /// powerset enumeration.
  bool MinimalCoresOnly = true;
};

/// Result of a consistency-checking run.
struct ConsistencyResult {
  /// G !(...) assumptions, one per unsatisfiable combination.
  std::vector<const Formula *> Assumptions;
  /// Number of SMT satisfiability queries issued (including queries
  /// answered by the service's cache); the same for every thread
  /// count.
  size_t SolverQueries = 0;
  /// Candidate combinations not checked because the deadline expired
  /// mid-sweep (either skipped before their query or aborted inside
  /// it). Non-zero means Assumptions is a valid-but-incomplete prefix
  /// of the full sweep's output.
  size_t DeadlineSkipped = 0;
};

/// Runs consistency checking over the predicate literals of \p Spec.
/// With a null \p Service (or a single-threaded one) the checks run
/// serially on the calling thread; a service with workers fans them out
/// across its pool and serves repeats from its query cache.
///
/// \p Dl is polled once per candidate combination. On expiry the sweep
/// degrades gracefully: remaining combinations are skipped (counted in
/// ConsistencyResult::DeadlineSkipped) and the assumptions found so far
/// are still emitted -- each one is valid on its own, so a partial sweep
/// only under-constrains the environment.
ConsistencyResult checkConsistency(const std::vector<const Term *> &Predicates,
                                   Theory Th, Context &Ctx,
                                   const ConsistencyOptions &Options = {},
                                   SolverService *Service = nullptr,
                                   const Deadline &Dl = {});

} // namespace temos

#endif // TEMOS_CORE_CONSISTENCYCHECKER_H
