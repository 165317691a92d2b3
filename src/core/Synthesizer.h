//===- core/Synthesizer.h - TSL-MT synthesis pipeline ----------*- C++ -*-===//
///
/// \file
/// The complete temos pipeline (Fig. 3 of the paper):
///
///   TSL-MT spec --> syntactic decomposition --> { predicate literals,
///   TSL spec, data transformation obligations } --> consistency
///   checking + SyGuS --> TSL with assumptions --> reactive synthesis
///   (with the Alg. 4 refinement loop) --> reactive program.
///
/// The per-phase timings and counts reported in PipelineStats are the
/// columns of Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_CORE_SYNTHESIZER_H
#define TEMOS_CORE_SYNTHESIZER_H

#include "core/AssumptionGenerator.h"
#include "core/ConsistencyChecker.h"
#include "core/Decomposition.h"
#include "game/BoundedSynthesis.h"
#include "support/Deadline.h"
#include "theory/SolverService.h"

#include <memory>
#include <string>

namespace temos {

/// Solver-service tunables: how the pipeline fans independent SMT and
/// SyGuS work out across workers, and whether verdicts are memoized.
struct ParallelismOptions {
  /// Worker threads for the solver service. 1 (the default) runs
  /// everything inline on the calling thread, exactly like the
  /// pre-service pipeline.
  unsigned NumThreads = 1;
  /// Memoize SMT verdicts in the service's query cache. The cache is
  /// keyed structurally, so it survives across pipeline runs on the
  /// same Synthesizer and serves repeated runs (PipelineStats reports
  /// the hit/miss split per run).
  bool CacheEnabled = true;
};

/// Wall-clock budgets for one pipeline run, in seconds; 0 = unlimited.
/// The SyGuS budget starts ticking when its phase starts and is
/// additionally capped by the total budget (whichever deadline falls
/// earlier wins). Expiry never aborts the process: the affected phase
/// degrades -- consistency checking emits the (individually valid)
/// assumptions found so far, SyGuS marks the obligation unresolved,
/// reactive synthesis and the Alg. 4 CHECK-SAT report Unknown -- and
/// every degradation is recorded as a Timeout entry in
/// PipelineStats::Failures.
struct TimeBudget {
  double TotalSeconds = 0;
  double SygusSeconds = 0;
};

/// Pipeline tunables.
struct PipelineOptions {
  DecompositionOptions Decomp;
  ConsistencyOptions Consistency;
  SynthesisOptions Reactive;
  AssumptionGenerator::Options Sygus;
  ParallelismOptions Parallelism;
  TimeBudget Budget;
  /// Refinement-loop iterations (Alg. 4) before giving up.
  unsigned MaxRefinements = 8;
  /// Cap on SyGuS-generated assumptions: assumptions beyond the cap are
  /// not generated (obligation order gives traversal-derived posts
  /// priority). Keeps the assumption automaton tractable.
  static constexpr size_t MaxSygusAssumptions = 16;
  /// The equivalence-preserving formula simplifier always runs on the
  /// final TSL-with-assumptions formula before automaton construction.
  static constexpr bool SimplifyBeforeSynthesis = true;
  /// Eager mode (the paper's approach) generates every assumption up
  /// front. Lazy mode adds assumptions one at a time, re-running
  /// reactive synthesis after each -- the alternative discussed in
  /// Sec. 5.2, implemented for the ablation bench.
  bool Eager = true;
  /// Fault injection for the deadline machinery (never set in
  /// production): makes the SyGuS enumeration deliberately
  /// non-terminating (see SygusSolver::Options::SpinHangForTesting), so
  /// the run only finishes if a deadline poll trips. validate() rejects
  /// this flag without a total or SyGuS time budget.
  bool InjectSpinHang = false;

  /// Checks the option combination for contradictions the pipeline
  /// cannot honor (zero worker threads, a spin-hang fault with no budget
  /// to end it, ...). Zero-valued budgets mean "unlimited" and are accepted.
  /// Returns an empty string when the options are coherent, otherwise a
  /// human-readable diagnostic. Synthesizer::run calls this up front
  /// and refuses to run on a non-empty answer.
  std::string validate() const;
};

/// One reactive-synthesis invocation of a pipeline run, as recorded for
/// the --bench-json emitter: the engine's own stats (cache reuse, bound,
/// phase split) and its verdict. The entry's index in
/// PipelineStats::ReactiveDetail is the refinement round (eager) or the
/// assumption-prefix length (lazy): each round runs the engine once.
struct ReactiveRunStats : SynthesisStats {
  Realizability Status = Realizability::Unknown;
};

/// Table 1's per-benchmark columns, plus solver-service accounting.
struct PipelineStats {
  size_t SpecSize = 0;        // |phi|
  size_t PredicateCount = 0;  // |P|
  size_t UpdateTermCount = 0; // |F|
  size_t AssumptionCount = 0; // |psi|
  double PsiGenSeconds = 0;   // psi generation, wall clock
  double SynthesisSeconds = 0; // TSL synthesis, wall clock
  /// CPU time (summed over all service workers) per phase. With N
  /// workers busy, CPU time approaches N x wall time; the ratio is the
  /// observed parallel utilization Table-1 speedup reports cite.
  double PsiGenCpuSeconds = 0;
  double SynthesisCpuSeconds = 0;
  unsigned Refinements = 0;
  /// Per-run aggregates over ReactiveDetail, written only by
  /// Synthesizer::recordReactiveRun: the entry count, the largest game.
  unsigned ReactiveRuns = 0;
  size_t GameStates = 0;
  size_t ConsistencyQueries = 0;
  /// Query-cache hits/misses attributable to this run (the cache itself
  /// persists across runs on the same Synthesizer, which is where
  /// repeated-run hits come from).
  size_t CacheHits = 0;
  size_t CacheMisses = 0;
  /// Incremental reactive-engine cache traffic for this run, summed over
  /// its reactive invocations. Hits mean a refinement round (or repeated
  /// run) skipped UCW construction / replayed tableau expansions instead
  /// of re-deriving them.
  size_t NbaCacheHits = 0;
  size_t NbaCacheMisses = 0;
  size_t ExpansionCacheHits = 0;
  size_t ExpansionCacheMisses = 0;
  /// One entry per reactive invocation (ReactiveRuns entries), in
  /// order. Surfaced via --bench-json; never part of the text summary.
  std::vector<ReactiveRunStats> ReactiveDetail;
  /// Structured failure taxonomy for this run, in the order the
  /// degradations happened: deadline expiries (Timeout), resource-budget
  /// aborts (StateBudget), arithmetic overflow (Overflow), exceptions
  /// escaping pool workers (WorkerException), and everything else
  /// (Internal). Empty on a clean run. Surfaced through --emit=summary,
  /// the bench JSON records, and the CLI exit code.
  std::vector<FailureRecord> Failures;
};

/// Result of running the pipeline.
struct PipelineResult {
  Realizability Status = Realizability::Unknown;
  /// Non-empty when the run was refused up front (option validation
  /// failure); Status is Unknown in that case.
  std::string Diagnostic;
  std::optional<MealyMachine> Machine;
  /// Alphabet used for the final (successful) reactive synthesis run.
  Alphabet AB;
  /// All assumptions fed to reactive synthesis.
  std::vector<const Formula *> Assumptions;
  std::vector<const Formula *> ConsistencyAssumptions;
  std::vector<GeneratedAssumption> SygusAssumptions;
  PipelineStats Stats;
};

/// The TSL-MT synthesizer.
class Synthesizer {
public:
  explicit Synthesizer(Context &Ctx) : Ctx(Ctx) {}

  /// Runs the full pipeline on \p Spec. Refuses to run (Status Unknown,
  /// Diagnostic set) when Options.validate() reports a problem.
  PipelineResult run(const Specification &Spec,
                     const PipelineOptions &Options = {});

  /// Builds the "TSL with assumptions" formula
  /// (assumptions && psi) -> guarantees for a given assumption set.
  const Formula *formulaWithAssumptions(
      const Specification &Spec,
      const std::vector<const Formula *> &Assumptions);

  /// The service the pipeline is using (null until the first run). Its
  /// cache persists across run() calls, which is what makes repeated
  /// runs report cache hits.
  std::shared_ptr<SolverService> solverService() const { return Service; }

  /// The reactive-synthesis engine. Like the solver service's query
  /// cache, its memo entries (UCW + game arena) persist across run()
  /// calls on this Synthesizer, so repeated runs of the same benchmark
  /// serve the UCW and the explored game from cache.
  SynthesisEngine &engine() { return Engine; }

private:
  /// The pipeline body behind run(), for both eager and lazy mode.
  PipelineResult runPipeline(const Specification &Spec,
                             const PipelineOptions &Options);
  /// Front half: decomposition, consistency checking and SyGuS
  /// assumption generation (with semantic deduplication). Fans
  /// independent obligations out across the service's pool.
  void generateAssumptions(const Specification &Spec,
                           const PipelineOptions &Options,
                           PipelineResult &Result, const Deadline &Global);
  /// Returns the service to use for this run, (re)creating it when the
  /// theory or parallelism configuration changed.
  SolverService &ensureService(Theory Th, const PipelineOptions &Options);

  /// Records one reactive invocation into Result's stats: its
  /// ReactiveDetail entry and the per-run aggregates (NBA misses count
  /// only when \p Incremental).
  static void recordReactiveRun(PipelineResult &Result,
                                const SynthesisResult &Reactive,
                                bool Incremental);

  Context &Ctx;
  std::shared_ptr<SolverService> Service;
  SynthesisEngine Engine;
};

} // namespace temos

#endif // TEMOS_CORE_SYNTHESIZER_H
