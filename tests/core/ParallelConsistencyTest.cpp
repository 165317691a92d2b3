//===- tests/core/ParallelConsistencyTest.cpp - Determinism tests ---------===//
///
/// The determinism guarantee of the solver-service redesign: fanning the
/// Sec. 4.2 consistency sweep and per-obligation SyGuS across worker
/// threads must emit byte-for-byte the same assumption set as the serial
/// pipeline, for every thread count.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace temos;

namespace {

/// Renders the full assumption output of one pipeline run: consistency
/// assumptions followed by SyGuS assumptions, in emission order.
std::string renderAssumptions(const PipelineResult &R) {
  std::string Out;
  for (const Formula *A : R.ConsistencyAssumptions)
    Out += A->str() + "\n";
  for (const GeneratedAssumption &A : R.SygusAssumptions)
    Out += A.Assumption->str() + "\n";
  return Out;
}

/// What a psi-generation run decided and what it asked the solver.
struct FrontEnd {
  std::string Assumptions;
  size_t ConsistencyQueries = 0;
  size_t CacheHits = 0;
  size_t CacheMisses = 0;
};

/// Runs the psi-generation front end of the pipeline on \p Source with
/// \p NumThreads workers.
FrontEnd runWithThreads(const std::string &Source, unsigned NumThreads) {
  Context Ctx;
  auto Spec = parseSpecification(Source, Ctx);
  EXPECT_TRUE(Spec.ok()) << Spec.error().str();
  if (!Spec)
    return {"<parse error>"};
  Synthesizer Synth(Ctx);
  PipelineOptions Options;
  Options.Parallelism.NumThreads = NumThreads;
  // The comparison is about psi generation; strangle the reactive
  // back end so the sweep over all benchmarks stays fast. The emitted
  // assumption set is unaffected (refinement is disabled too, since it
  // could rewrite assumptions based on reactive outcomes).
  Options.Reactive.BoundSchedule = {1};
  Options.Reactive.StateBudget = 1000;
  Options.MaxRefinements = 0;
  PipelineResult R = Synth.run(*Spec, Options);
  EXPECT_TRUE(R.Diagnostic.empty()) << R.Diagnostic;
  return {renderAssumptions(R), R.Stats.ConsistencyQueries,
          R.Stats.CacheHits, R.Stats.CacheMisses};
}

TEST(ParallelConsistency, BundledBenchmarksMatchSerial) {
  // Every bundled Table-1 benchmark: the NumThreads=4 assumption set is
  // byte-identical to the NumThreads=1 one, and the level-synchronous
  // sweep asks the same consistency queries at both widths, so the SMT
  // cache counts match too.
  for (const BenchmarkSpec &B : allBenchmarks()) {
    FrontEnd Serial = runWithThreads(B.Source, 1);
    FrontEnd Parallel = runWithThreads(B.Source, 4);
    EXPECT_EQ(Serial.Assumptions, Parallel.Assumptions) << B.Name;
    EXPECT_EQ(Serial.ConsistencyQueries, Parallel.ConsistencyQueries)
        << B.Name;
    EXPECT_EQ(Serial.CacheHits, Parallel.CacheHits) << B.Name;
    EXPECT_EQ(Serial.CacheMisses, Parallel.CacheMisses) << B.Name;
  }
}

TEST(ParallelConsistency, CacheCountsRepeatAtFourJobs) {
  // Whole default pipelines: five four-thread runs of each row report
  // the single-thread run's SMT cache hits and misses. Concurrent
  // workers asking one key wait for its first computation instead of
  // missing too.
  for (const char *Row : {"Two-Player", "Automatic", "Single-Player"}) {
    auto Counts = [&](unsigned NumThreads) {
      Context Ctx;
      auto Spec = parseSpecification(findBenchmark(Row)->Source, Ctx);
      EXPECT_TRUE(Spec.ok()) << Spec.error().str();
      Synthesizer Synth(Ctx);
      PipelineOptions Options;
      Options.Parallelism.NumThreads = NumThreads;
      PipelineResult R = Synth.run(*Spec, Options);
      return std::make_pair(R.Stats.CacheHits, R.Stats.CacheMisses);
    };
    const auto Serial = Counts(1);
    EXPECT_GT(Serial.first, 0u) << Row;
    for (int Run = 0; Run < 5; ++Run)
      EXPECT_EQ(Counts(4), Serial) << Row << " run " << Run;
  }
}

TEST(ParallelConsistency, ConsistencyCheckerDirectFanOut) {
  // Drive checkConsistency directly with a predicate set large enough
  // that the powerset sweep actually spreads across workers.
  const std::string Source = R"(
    #LIA#
    inputs { int a, b, c, d; }
    cells { int m = 0; }
    always guarantee {
      G (a < b -> [m <- a]);
      G (b < c -> [m <- b]);
      G (c < d -> [m <- c]);
      G (d < a -> [m <- d]);
      G (a = b -> [m <- m]);
      G (c = d -> [m <- m]);
    }
  )";

  auto run = [&](unsigned NumThreads) {
    Context Ctx;
    auto Spec = parseSpecification(Source, Ctx);
    EXPECT_TRUE(Spec.ok()) << Spec.error().str();
    Decomposition D = decompose(*Spec, Ctx);
    SolverService::Config C;
    C.NumThreads = NumThreads;
    SolverService Svc(Spec->Th, C);
    ConsistencyResult R = checkConsistency(D.PredicateLiterals, Spec->Th,
                                           Ctx, {}, &Svc);
    std::string Out;
    for (const Formula *A : R.Assumptions)
      Out += A->str() + "\n";
    return Out;
  };

  std::string Serial = run(1);
  EXPECT_FALSE(Serial.empty());
  for (unsigned Threads : {2u, 4u, 8u})
    EXPECT_EQ(Serial, run(Threads)) << Threads << " threads";
}

TEST(ParallelConsistency, RepeatedRunHitsTheCache) {
  // The service's cache is structural, so a second run of the same spec
  // on the same Synthesizer answers its queries from the cache.
  const BenchmarkSpec *B = findBenchmark("Simple");
  ASSERT_NE(B, nullptr);
  Context Ctx;
  auto Spec = parseSpecification(B->Source, Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  Synthesizer Synth(Ctx);

  PipelineResult First = Synth.run(*Spec);
  EXPECT_GT(First.Stats.CacheMisses, 0u);

  PipelineResult Second = Synth.run(*Spec);
  EXPECT_GT(Second.Stats.CacheHits, 0u);
  EXPECT_EQ(renderAssumptions(First), renderAssumptions(Second));
}

TEST(PipelineValidate, RejectsZeroThreads) {
  PipelineOptions Options;
  Options.Parallelism.NumThreads = 0;
  EXPECT_FALSE(Options.validate().empty());
}

TEST(PipelineValidate, AcceptsDefaults) {
  PipelineOptions Options;
  EXPECT_EQ(Options.validate(), "");
}

TEST(PipelineValidate, RunRefusesInvalidOptions) {
  Context Ctx;
  auto Spec = parseSpecification("inputs { bool p; }", Ctx);
  ASSERT_TRUE(Spec.ok());
  Synthesizer Synth(Ctx);
  PipelineOptions Options;
  Options.Parallelism.NumThreads = 0;
  PipelineResult R = Synth.run(*Spec, Options);
  EXPECT_EQ(R.Status, Realizability::Unknown);
  EXPECT_FALSE(R.Diagnostic.empty());
}

} // namespace
