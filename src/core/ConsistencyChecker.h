//===- core/ConsistencyChecker.h - Consistency checking (4.2) --*- C++ -*-===//
///
/// \file
/// Consistency checking (Sec. 4.2): the environment can only produce
/// input valuations that are satisfiable in the background theory, but
/// the reactive layer treats predicates as opaque inputs. For every
/// theory-unsatisfiable combination of predicate literals this pass
/// emits the assumption G !(p1 && ... && pk), e.g. G !(x < y && y < x)
/// for the mutex example.
///
/// The paper enumerates the full powerset (O(2^n) SMT queries). We
/// support that, plus a minimal-core mode that suppresses subsumed
/// combinations (if {a,b} is unsat, {a,b,c} adds nothing) -- the
/// ablation bench compares the two.
///
/// The subset checks are independent SMT queries, so when a
/// SolverService with workers is supplied they are fanned out across
/// its pool: workers publish unsat cores to a per-call UnsatCoreStore and
/// skip supersets opportunistically, and a deterministic post-filter
/// replays the serial acceptance order over the collected verdicts.
/// The emitted assumption list is therefore byte-identical for every
/// thread count (see docs/ARCHITECTURE.md for the argument).
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
  /// Largest literal combination checked (full powerset up to this
  /// size). The paper's powerset corresponds to the predicate count.
  unsigned MaxSubsetSize = 3;
  /// Emit only minimal unsatisfiable combinations (supersets of an
  /// already-unsat set are skipped). Off reproduces the paper's plain
  /// powerset enumeration.
  bool MinimalCoresOnly = true;
  /// Cooperative deadline, polled once per candidate combination. On
  /// expiry the sweep degrades gracefully: remaining combinations are
  /// skipped (counted in ConsistencyResult::DeadlineSkipped) and the
  /// assumptions found so far are still emitted -- each one is valid on
  /// its own, so a partial sweep only under-constrains the environment.
  Deadline Dl;
};

/// Result of a consistency-checking run.
struct ConsistencyResult {
  /// G !(...) assumptions, one per unsatisfiable combination.
  std::vector<const Formula *> Assumptions;
  /// Number of SMT satisfiability queries issued (including queries
  /// answered by the service's cache). In minimal-core mode with
  /// workers the count can vary with scheduling -- opportunistic
  /// pruning races -- while the assumption list never does.
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
ConsistencyResult checkConsistency(const std::vector<const Term *> &Predicates,
                                   Theory Th, Context &Ctx,
                                   const ConsistencyOptions &Options = {},
                                   SolverService *Service = nullptr);

} // namespace temos

#endif // TEMOS_CORE_CONSISTENCYCHECKER_H
