//===- tests/core/GoldenPipelineTest.cpp - Deterministic golden values ----===//
///
/// \file
/// Regression guards on the paper's running examples: formula ids are
/// stable (creation-ordered), the tableau orders states by them, and
/// the game extracts the least-output strategy, so machine sizes and
/// assumption sets are fully deterministic. These tests pin the exact
/// artifacts so that behavioural drift in any pipeline stage is caught.
///
//===----------------------------------------------------------------------===//

#include "codegen/CodeEmitter.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

TEST(GoldenPipeline, IntroCounterArtifacts) {
  Context Ctx;
  auto Spec = parseSpecification(R"(
    #LIA#
    spec Counter
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )", Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(*Spec);
  ASSERT_EQ(R.Status, Realizability::Realizable);

  // The exact generated assumption set (order and content).
  ASSERT_EQ(R.Assumptions.size(), 3u);
  EXPECT_EQ(R.Assumptions[0]->str(), "G ! ((x = 0) && (x = 2))");
  EXPECT_EQ(R.Assumptions[1]->str(),
            "G (((x = 0) && [x <- (x + 1)] && X [x <- (x + 1)]) -> "
            "X X (x = 2))");
  EXPECT_EQ(R.Assumptions[2]->str(),
            "G (((x = 2) && [x <- (x - 1)] && X [x <- (x - 1)]) -> "
            "X X (x = 0))");

  // Stats golden values.
  EXPECT_EQ(R.Stats.SpecSize, 7u);
  EXPECT_EQ(R.Stats.PredicateCount, 2u);
  EXPECT_EQ(R.Stats.UpdateTermCount, 2u);
  EXPECT_EQ(R.Stats.Refinements, 0u);
  EXPECT_EQ(R.Stats.ReactiveRuns, 1u);

  // Machine shape.
  EXPECT_EQ(R.Machine->stateCount(), 8u);
  EXPECT_EQ(R.Machine->inputCount(), 4u); // 2 predicates.
  EXPECT_EQ(R.AB.outputLetterCount(), 3u); // +1, -1, self.

  // Generated code is byte-stable.
  std::string Js = emitJavaScript(*R.Machine, R.AB, *Spec);
  EXPECT_EQ(countLines(Js), 147u);
}

TEST(GoldenPipeline, VibratoArtifacts) {
  Context Ctx;
  auto Spec = parseSpecification(R"(
    #RA#
    spec Vibrato
    cells { real lfoFreq = 0; bool lfo; }
    always guarantee {
      G F [lfo <- True()];
      G F [lfo <- False()];
      lfoFreq <= c10() -> [lfo <- False()] U lfoFreq > c10();
      lfoFreq > c10() -> [lfo <- True()] U lfoFreq <= c10();
      [lfo <- False()] -> [lfoFreq <- lfoFreq + c1()];
      [lfo <- True()] -> [lfoFreq <- lfoFreq - c1()];
    }
  )", Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(*Spec);
  ASSERT_EQ(R.Status, Realizability::Realizable);

  // The two threshold-crossing loop assumptions plus consistency: the
  // thresholds can hold neither both at once nor neither.
  ASSERT_EQ(R.Assumptions.size(), 4u);
  EXPECT_EQ(R.Assumptions[0]->str(),
            "G ! ((lfoFreq <= 10) && (lfoFreq > 10))");
  EXPECT_EQ(R.Assumptions[1]->str(),
            "G ! (! (lfoFreq <= 10) && ! (lfoFreq > 10))");
  EXPECT_EQ(R.Assumptions[2]->str(),
            "G (((lfoFreq <= 10) && ([lfoFreq <- (lfoFreq + 1)] W "
            "(lfoFreq > 10))) -> F (lfoFreq > 10))");
  EXPECT_EQ(R.Assumptions[3]->str(),
            "G (((lfoFreq > 10) && ([lfoFreq <- (lfoFreq - 1)] W "
            "(lfoFreq <= 10))) -> F (lfoFreq <= 10))");
  EXPECT_EQ(R.Stats.PredicateCount, 2u);
  EXPECT_EQ(R.Stats.UpdateTermCount, 4u);
}

TEST(GoldenPipeline, DeterministicAcrossRuns) {
  // Two independent contexts produce identical machines.
  auto Run = []() {
    Context Ctx;
    auto Spec = parseSpecification(R"(
      #LIA#
      inputs { int a; }
      cells { int x = 0; }
      always guarantee {
        G (a < x -> [x <- x]);
        G (x < a -> [x <- x + 1]);
      }
    )", Ctx);
    Synthesizer Synth(Ctx);
    PipelineResult R = Synth.run(*Spec);
    EXPECT_EQ(R.Status, Realizability::Realizable);
    return emitJavaScript(*R.Machine, R.AB, *Spec);
  };
  EXPECT_EQ(Run(), Run());
}

} // namespace
