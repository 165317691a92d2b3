//===- theory/SolverService.h - Shared parallel solver service -*- C++ -*-===//
///
/// \file
/// The solver-service layer: the one front door to verdict-only SMT
/// queries for every pipeline phase (the Sec. 4.2 consistency sweep,
/// the Sec. 4.3 SyGuS verifier). It combines
///
///  * a SolverPool of workers, each query running its own SmtSolver
///    clone (SmtSolver::clone() is cheap because the solver keeps no
///    state between queries), and
///  * one table of verdicts keyed on interned nodes: a literal query by
///    its sorted, deduplicated (atom, polarity) set, a formula query by
///    its node, the two kinds never sharing a key. Node addresses name a
///    query only within one Context; a service belongs to one
///    Synthesizer, which holds one Context for life.
///
/// A key's entry is a claim while one thread computes it, then its
/// verdict. A thread asking for a claimed key waits for the verdict and
/// counts a hit, as it would had it asked later. So the hits and misses
/// depend only on the multiset of queries, not on thread timing.
/// Unknown verdicts (resource-limit artifacts, not facts about the
/// query) are not stored, and neither is a computation that throws:
/// either way the claim is released and the next asker misses.
///
/// The table is bounded like every other memo in the pipeline: storing
/// a verdict when DefaultCapacity verdicts are stored first drops all of
/// them (live claims stay). Dropping only costs recomputation, never a
/// verdict change, and the hit/miss counts survive it.
///
/// The service stores verdicts only; a caller that needs a model runs
/// an SmtSolver of its own.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_THEORY_SOLVERSERVICE_H
#define TEMOS_THEORY_SOLVERSERVICE_H

#include "support/SolverPool.h"
#include "theory/SmtSolver.h"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace temos {

/// Parallel, memoizing satisfiability service over one theory.
class SolverService {
public:
  /// How the pipeline fans independent SMT and SyGuS work out across
  /// workers, and whether verdicts are memoized.
  struct Config {
    /// Worker threads; 1 (the default) runs everything inline on the
    /// caller's thread.
    unsigned NumThreads = 1;
    /// Memoize verdicts. The table is keyed on interned nodes, so it
    /// survives across pipeline runs on the same Synthesizer and serves
    /// repeated runs (PipelineStats reports the hit/miss split per run).
    bool CacheEnabled = true;

    bool operator==(const Config &) const = default;
  };

  /// Stored-verdict cap. Far above any bundled workload's working set
  /// (the whole 16-benchmark suite stores a few hundred verdicts), so
  /// default runs never drop; it bounds a long-lived service under
  /// open-ended traffic.
  static constexpr size_t DefaultCapacity = 1 << 16;

  explicit SolverService(Theory Th) : SolverService(Th, Config()) {}
  SolverService(Theory Th, Config C);

  Theory theory() const { return Prototype.theory(); }
  const Config &config() const { return Cfg; }

  /// Satisfiability of a literal conjunction, served from the table
  /// when possible.
  SatResult checkLiterals(const std::vector<TheoryLiteral> &Literals);

  /// Satisfiability of a boolean-structure formula (memoized).
  SatResult checkFormula(const Formula *F);

  /// The worker pool, for phases that fan out their own task structure
  /// (the consistency checker's subset sweep, per-obligation SyGuS).
  SolverPool &pool() { return Pool; }

  /// Attaches a cooperative deadline to the prototype solver; every
  /// per-query clone inherits the shared token, so one call bounds all
  /// in-flight and future queries. Default Deadline detaches.
  void setDeadline(const Deadline &D) { Prototype.setDeadline(D); }

  /// Queries answered from the table (waits on a claim included) and
  /// queries computed, since construction; a drop does not reset them.
  /// Both stay 0 with the cache disabled.
  size_t hits() const;
  size_t misses() const;
  /// Verdicts stored now.
  size_t size() const;

private:
  SatResult cached(const std::string &Key,
                   const std::function<SatResult()> &Compute);

  Config Cfg;
  SmtSolver Prototype;
  SolverPool Pool;
  /// Guards everything below; Settled signals that a claim ended.
  mutable std::mutex Mutex;
  std::condition_variable Settled;
  /// Key -> stored verdict, or nullopt while a thread holds its claim.
  std::unordered_map<std::string, std::optional<SatResult>> Table;
  size_t Stored = 0;
  size_t Hits = 0;
  size_t Misses = 0;
};

} // namespace temos

#endif // TEMOS_THEORY_SOLVERSERVICE_H
