//===- tests/benchmarks/IncrementalParityTest.cpp - Incremental == scratch ===//
///
/// \file
/// Proves the incremental reactive-synthesis engine is observationally
/// identical to from-scratch mode: on every bundled benchmark, running
/// the pipeline with SynthesisOptions::Incremental on and off yields
/// the same verdict, the same generated assumptions, and byte-identical
/// emitted JavaScript and C++. A second group pins jobs=4 to jobs=1
/// under the incremental engine, and a third runs one Synthesizer twice
/// (eager Counting, lazy Vibrato) to pin the per-call reuse counters
/// (NBA cache hits, arena states kept alive) without changing the
/// output.
///
/// The three slowest benchmarks (Multi-effect, Load Balancer, CFS) only
/// run when TEMOS_GOLDEN_SLOW is set, mirroring the golden-file suite.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "codegen/CodeEmitter.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

using namespace temos;

namespace {

struct ParityBenchmark {
  const char *Name; ///< As accepted by findBenchmark.
  bool Slow;        ///< Gated behind TEMOS_GOLDEN_SLOW.
};

const ParityBenchmark ParityBenchmarks[] = {
    {"Vibrato", false},       {"Modulation", false},
    {"Intertwined", false},   {"Multi-effect", true},
    {"Single-Player", false}, {"Two-Player", false},
    {"Bouncing", false},      {"Automatic", false},
    {"Simple", false},        {"Counting", false},
    {"Bidirectional", false}, {"Smart", false},
    {"Round Robin", false},   {"Load Balancer", true},
    {"Preemptive", false},    {"CFS", true},
};

/// Prints a row as its benchmark name. gtest's fallback prints the
/// struct's raw bytes, Name pointer included, and that address would
/// leak into the registered test names and change with every build.
void PrintTo(const ParityBenchmark &P, std::ostream *OS) { *OS << P.Name; }

/// Everything an outside observer can see of one pipeline run.
struct RunArtifacts {
  Realizability Status = Realizability::Unknown;
  std::vector<std::string> Assumptions;
  std::string Js;
  std::string Cpp;
};

RunArtifacts runOnce(const BenchmarkSpec &B, const PipelineOptions &Options) {
  RunArtifacts A;
  Context Ctx;
  auto Spec = parseSpecification(B.Source, Ctx);
  if (!Spec) {
    ADD_FAILURE() << B.Name << ": " << Spec.error().str();
    return A;
  }
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(*Spec, Options);
  EXPECT_TRUE(R.Diagnostic.empty()) << R.Diagnostic;
  A.Status = R.Status;
  for (const Formula *F : R.Assumptions)
    A.Assumptions.push_back(F->str());
  if (R.Machine) {
    A.Js = emitJavaScript(*R.Machine, R.AB, *Spec);
    A.Cpp = emitCpp(*R.Machine, R.AB, *Spec);
  }
  return A;
}

class IncrementalParity : public ::testing::TestWithParam<ParityBenchmark> {};

TEST_P(IncrementalParity, MatchesFromScratch) {
  const ParityBenchmark &P = GetParam();
  if (P.Slow && !std::getenv("TEMOS_GOLDEN_SLOW"))
    GTEST_SKIP() << "set TEMOS_GOLDEN_SLOW to run " << P.Name;
  const BenchmarkSpec *B = findBenchmark(P.Name);
  ASSERT_NE(B, nullptr);

  PipelineOptions Incremental;
  Incremental.Reactive.Incremental = true;
  PipelineOptions Scratch;
  Scratch.Reactive.Incremental = false;

  RunArtifacts Inc = runOnce(*B, Incremental);
  RunArtifacts Fresh = runOnce(*B, Scratch);

  EXPECT_EQ(Inc.Status, Fresh.Status) << P.Name;
  EXPECT_EQ(Inc.Assumptions, Fresh.Assumptions) << P.Name;
  EXPECT_EQ(Inc.Js, Fresh.Js) << P.Name;
  EXPECT_EQ(Inc.Cpp, Fresh.Cpp) << P.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, IncrementalParity, ::testing::ValuesIn(ParityBenchmarks),
    [](const ::testing::TestParamInfo<ParityBenchmark> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

/// Game exploration merges each wave in wave order and SyGuS merges
/// each batch in obligation order, so every pool width must yield the
/// same assumptions and the same machine. Covers every row not gated by
/// TEMOS_GOLDEN_SLOW.
TEST(IncrementalParity, JobsFourMatchesJobsOne) {
  for (const ParityBenchmark &P : ParityBenchmarks) {
    if (P.Slow)
      continue;
    const BenchmarkSpec *B = findBenchmark(P.Name);
    ASSERT_NE(B, nullptr);

    PipelineOptions One;
    One.Parallelism.NumThreads = 1;
    PipelineOptions Four;
    Four.Parallelism.NumThreads = 4;

    RunArtifacts Serial = runOnce(*B, One);
    RunArtifacts Parallel = runOnce(*B, Four);

    EXPECT_EQ(Serial.Status, Parallel.Status) << P.Name;
    EXPECT_EQ(Serial.Assumptions, Parallel.Assumptions) << P.Name;
    EXPECT_EQ(Serial.Js, Parallel.Js) << P.Name;
    EXPECT_EQ(Serial.Cpp, Parallel.Cpp) << P.Name;
  }
}

/// Two runs on one Synthesizer: the second must hit the NBA cache on
/// every reactive invocation and reuse the live arena, and still produce
/// byte-identical output. Counting is eager with one reactive run;
/// lazy Vibrato makes three reactive runs on three distinct specs, so
/// the engine keeps one memo entry per spec across the two runs.
TEST(IncrementalParity, SecondRunReusesEngineState) {
  struct Row {
    const char *Name;
    bool Eager;
    unsigned ReactiveRuns;
  };
  const Row Rows[] = {{"Counting", true, 1}, {"Vibrato", false, 3}};
  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Name);
    const BenchmarkSpec *B = findBenchmark(R.Name);
    ASSERT_NE(B, nullptr);

    Context Ctx;
    auto Spec = parseSpecification(B->Source, Ctx);
    ASSERT_TRUE(Spec.ok()) << Spec.error().str();
    Synthesizer Synth(Ctx);
    PipelineOptions Options;
    Options.Eager = R.Eager;

    PipelineResult First = Synth.run(*Spec, Options);
    ASSERT_EQ(First.Status, Realizability::Realizable);
    ASSERT_TRUE(First.Machine.has_value());
    EXPECT_EQ(First.Stats.ReactiveRuns, R.ReactiveRuns);
    EXPECT_EQ(First.Stats.NbaCacheMisses, R.ReactiveRuns);
    std::string FirstJs = emitJavaScript(*First.Machine, First.AB, *Spec);

    PipelineResult Second = Synth.run(*Spec, Options);
    ASSERT_EQ(Second.Status, Realizability::Realizable);
    ASSERT_TRUE(Second.Machine.has_value());
    EXPECT_EQ(emitJavaScript(*Second.Machine, Second.AB, *Spec), FirstJs);
    EXPECT_EQ(Second.Stats.ReactiveRuns, R.ReactiveRuns);
    EXPECT_EQ(Second.Stats.NbaCacheHits, R.ReactiveRuns);
    EXPECT_EQ(Second.Stats.NbaCacheMisses, 0u);
    EXPECT_EQ(Second.Stats.CacheMisses, 0u);
    ASSERT_EQ(Second.Stats.ReactiveDetail.size(), R.ReactiveRuns);
    for (const ReactiveRunStats &Run : Second.Stats.ReactiveDetail) {
      EXPECT_TRUE(Run.NbaCacheHit) << "round " << Run.Round;
      EXPECT_GT(Run.ArenaStatesReused, 0u) << "round " << Run.Round;
    }
  }
}

} // namespace
