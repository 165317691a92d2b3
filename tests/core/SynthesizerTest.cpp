//===- tests/core/SynthesizerTest.cpp - Full pipeline tests ---------------===//

#include "core/Synthesizer.h"

#include "benchmarks/Benchmarks.h"
#include "core/AssumptionCore.h"
#include "logic/Parser.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class SynthesizerTest : public ::testing::Test {
protected:
  Specification parse(const std::string &Source) {
    auto Spec = parseSpecification(Source, Ctx);
    EXPECT_TRUE(Spec.ok()) << Spec.error().str();
    return *Spec;
  }

  Context Ctx;
};

TEST_F(SynthesizerTest, IntroCounterExample) {
  // The introduction's spec: unrealizable in plain TSL, realizable in
  // TSL modulo LIA thanks to the generated assumption.
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(Spec);
  EXPECT_EQ(R.Status, Realizability::Realizable);
  ASSERT_TRUE(R.Machine.has_value());
  EXPECT_GT(R.Stats.AssumptionCount, 0u);
  EXPECT_EQ(R.Stats.PredicateCount, 2u);
  EXPECT_EQ(R.Stats.UpdateTermCount, 2u);
}

TEST_F(SynthesizerTest, PlainTslIsUnrealizableWithoutAssumptions) {
  // The same spec, but with assumption generation disabled (no
  // obligations -> no psi): the plain TSL underapproximation cannot
  // realize it, exactly the paper's point.
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineOptions Options;
  Options.Decomp.MaxObligations = 0;
  Options.Consistency.MaxSubsetSize = 0;
  PipelineResult R = Synth.run(Spec, Options);
  EXPECT_EQ(R.Status, Realizability::Unrealizable);
}

TEST_F(SynthesizerTest, MutexExampleNeedsConsistency) {
  // Sec. 4.2's min example: realizable only with the consistency
  // assumption G !(x < y && y < x).
  Specification Spec = parse(R"(
    #LIA#
    inputs { int x, y; }
    cells { int m = 0; }
    always guarantee {
      G (x < y -> [m <- x]);
      G (y < x -> [m <- y]);
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(Spec);
  EXPECT_EQ(R.Status, Realizability::Realizable);
  EXPECT_FALSE(R.ConsistencyAssumptions.empty());

  // Without consistency checking the spec is unrealizable.
  PipelineOptions NoConsistency;
  NoConsistency.Consistency.MaxSubsetSize = 0;
  PipelineResult R2 = Synth.run(Spec, NoConsistency);
  EXPECT_EQ(R2.Status, Realizability::Unrealizable);
}

TEST_F(SynthesizerTest, RefinementLoopExampleFourSix) {
  // Example 4.6: [x <- x+1] must be followed by [x <- x], so the first
  // SyGuS program (+1;+1) is unhelpful and refinement must find
  // (+1; skip; +1).
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x];
      [x <- x + 1] -> X [x <- x];
      x = 0 -> F (x = 2);
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(Spec);
  EXPECT_EQ(R.Status, Realizability::Realizable);
  EXPECT_GT(R.Stats.Refinements, 0u);
}

TEST_F(SynthesizerTest, VibratoStyleSpec) {
  // A cut-down Fig. 5 vibrato: threshold-crossing liveness over a real
  // cell.
  Specification Spec = parse(R"(
    #RA#
    cells { real freq = 0; bool lfo; }
    always guarantee {
      [freq <- freq + 1] || [freq <- freq - 1];
      freq <= c10() -> F (freq > c10());
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(Spec);
  EXPECT_EQ(R.Status, Realizability::Realizable);
  EXPECT_GT(R.Stats.AssumptionCount, 0u);
}

TEST_F(SynthesizerTest, LazyModeMatchesEagerVerdict) {
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineOptions Lazy;
  Lazy.Eager = false;
  PipelineResult R = Synth.run(Spec, Lazy);
  EXPECT_EQ(R.Status, Realizability::Realizable);
  // Lazy mode re-runs reactive synthesis at least once more than eager.
  EXPECT_GE(R.Stats.ReactiveRuns, 1u);
}

/// Lazy mode (Sec. 5.2's ablation) on the bundled rows whose lazy run is
/// fast: the verdict, the number of reactive runs (one per assumption
/// prefix tried), the size of the winning prefix and the machine size
/// are pinned, so a change to the pipeline loop cannot silently shift
/// where lazy mode stops.
struct LazyPin {
  const char *Name;
  Realizability Status;
  unsigned ReactiveRuns;
  size_t AssumptionCount;
  size_t MachineStates;
};

const LazyPin LazyPins[] = {
    {"Vibrato", Realizability::Realizable, 3, 4, 15},
    {"Modulation", Realizability::Realizable, 3, 4, 15},
    {"Single-Player", Realizability::Realizable, 2, 5, 17},
    {"Two-Player", Realizability::Realizable, 2, 5, 17},
    {"Bouncing", Realizability::Realizable, 3, 3, 32},
    {"Automatic", Realizability::Realizable, 2, 8, 17},
    {"Simple", Realizability::Realizable, 1, 0, 2},
    {"Counting", Realizability::Realizable, 1, 0, 2},
    {"Bidirectional", Realizability::Realizable, 1, 0, 2},
    {"Smart", Realizability::Realizable, 2, 1, 15},
    {"Round Robin", Realizability::Realizable, 2, 3, 13},
    {"Preemptive", Realizability::Realizable, 2, 3, 14},
};

TEST(SynthesizerLazyPin, BundledRows) {
  for (const LazyPin &Pin : LazyPins) {
    SCOPED_TRACE(Pin.Name);
    const BenchmarkSpec *B = findBenchmark(Pin.Name);
    ASSERT_NE(B, nullptr);
    Context Ctx;
    auto Spec = parseSpecification(B->Source, Ctx);
    ASSERT_TRUE(Spec.ok()) << Spec.error().str();
    Synthesizer Synth(Ctx);
    PipelineOptions Lazy;
    Lazy.Eager = false;
    PipelineResult R = Synth.run(*Spec, Lazy);
    EXPECT_EQ(R.Status, Pin.Status);
    EXPECT_EQ(R.Stats.ReactiveRuns, Pin.ReactiveRuns);
    EXPECT_EQ(R.Stats.AssumptionCount, Pin.AssumptionCount);
    ASSERT_TRUE(R.Machine.has_value());
    EXPECT_EQ(R.Machine->stateCount(), Pin.MachineStates);
    // One entry per lazy round; every round before the last one was
    // unrealizable, which is why the next assumption got appended.
    ASSERT_EQ(R.Stats.ReactiveDetail.size(), Pin.ReactiveRuns);
    for (unsigned I = 0; I + 1 < Pin.ReactiveRuns; ++I)
      EXPECT_EQ(R.Stats.ReactiveDetail[I].Status, Realizability::Unrealizable)
          << "round " << I;
    EXPECT_EQ(R.Stats.ReactiveDetail.back().Status, Pin.Status);
  }
}

TEST_F(SynthesizerTest, StatsTimingsPopulated) {
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(Spec);
  EXPECT_GT(R.Stats.SpecSize, 0u);
  EXPECT_GE(R.Stats.PsiGenSeconds, 0.0);
  EXPECT_GE(R.Stats.SynthesisSeconds, 0.0);
  EXPECT_GE(R.Stats.ReactiveRuns, 1u);
}

TEST_F(SynthesizerTest, OracleMinimizesAssumptions) {
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(Spec);
  ASSERT_EQ(R.Status, Realizability::Realizable);
  OracleResult O = computeOracle(Spec, R.Assumptions, Ctx);
  EXPECT_EQ(O.Status, Realizability::Realizable);
  EXPECT_LE(O.Core.size(), R.Assumptions.size());
  EXPECT_GT(O.RealizabilityChecks, 0u);
  // The core must still be realizable (checked inside computeOracle) and
  // nonempty for this spec (plain TSL alone is unrealizable).
  EXPECT_GE(O.Core.size(), 1u);
}

TEST_F(SynthesizerTest, TinyReactiveBudgetsSurfaceUnknown) {
  // Budget exhaustion inside the reactive engine must reach the
  // pipeline verdict as Unknown -- never as Unrealizable, which would
  // wrongly claim the spec has no controller.
  const char *Source = R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )";
  {
    Specification Spec = parse(Source);
    Synthesizer Synth(Ctx);
    PipelineOptions Options;
    Options.Reactive.StateBudget = 1;
    PipelineResult R = Synth.run(Spec, Options);
    EXPECT_EQ(R.Status, Realizability::Unknown);
    EXPECT_FALSE(R.Machine.has_value());
  }
  {
    Specification Spec = parse(Source);
    Synthesizer Synth(Ctx);
    PipelineOptions Options;
    Options.Reactive.Tableau.MaxGeneralizedStates = 1;
    PipelineResult R = Synth.run(Spec, Options);
    EXPECT_EQ(R.Status, Realizability::Unknown);
    EXPECT_FALSE(R.Machine.has_value());
  }
}

TEST_F(SynthesizerTest, UnrealizableSpecReported) {
  // x must eventually exceed any input... the guarantee G p over an
  // environment-controlled predicate is hopeless.
  Specification Spec = parse(R"(
    #LIA#
    inputs { int a; }
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x];
      a < x;
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(Spec);
  EXPECT_EQ(R.Status, Realizability::Unrealizable);
}

} // namespace
