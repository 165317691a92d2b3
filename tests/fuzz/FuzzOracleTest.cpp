//===- tests/fuzz/FuzzOracleTest.cpp - Oracle smoke tests -----------------===//
///
/// \file
/// Bounded smoke runs of the five differential oracles: a fixed seed,
/// a few dozen iterations, and the expectation that the substrates
/// agree. The heavyweight sweep lives in the `fuzz_smoke` ctest entry
/// and scripts/ci.sh; these stay small enough for the edit-compile-test
/// loop.
///
//===----------------------------------------------------------------------===//

#include "tools/fuzz/Fuzz.h"
#include "tools/fuzz/Generator.h"

#include "tsl2ltl/Alphabet.h"

#include <gtest/gtest.h>

using namespace temos;
using namespace temos::fuzz;

namespace {

FuzzOptions smokeOptions(unsigned Iterations) {
  FuzzOptions Options;
  Options.Seed = 1;
  Options.Iterations = Iterations;
  Options.ArtifactsDir.clear(); // No repro files from unit tests.
  return Options;
}

void expectClean(const OracleReport &Report, unsigned Iterations) {
  EXPECT_EQ(Report.Iterations, Iterations);
  for (const FailureCase &F : Report.Failures)
    ADD_FAILURE() << Report.Oracle << " seed " << F.Seed << " iteration "
                  << F.Iteration << ": " << F.Description << "\n"
                  << F.Repro;
}

TEST(FuzzOracle, TheorySolverAgreesWithGroundEvaluation) {
  expectClean(runTheoryOracle(smokeOptions(150)), 150);
}

TEST(FuzzOracle, PrintParseRoundTripIsFixpoint) {
  expectClean(runRoundTripOracle(smokeOptions(150)), 150);
}

TEST(FuzzOracle, SynthesizedProgramsSurviveGroundCheck) {
  expectClean(runSygusOracle(smokeOptions(80)), 80);
}

TEST(FuzzOracle, PipelineIsDeterministicAcrossConfigs) {
  expectClean(runPipelineOracle(smokeOptions(10)), 10);
}

// The game computes successors over masks of 64 output letters a word;
// the pipeline oracle must reach specs that need more than one word.
TEST(FuzzOracle, PipelineSpecsSpanSeveralMaskWords) {
  unsigned Wide = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Context Ctx;
    Rng R(Seed);
    Generator Gen(Ctx, R);
    const std::string Source = Gen.pipelineSpecSource();
    auto Spec = parseSpecification(Source, Ctx);
    ASSERT_TRUE(Spec.ok()) << Spec.error().str() << "\n" << Source;
    const size_t Letters = Alphabet::build(*Spec, Ctx).outputLetterCount();
    Wide += Letters > 64;
  }
  EXPECT_GE(Wide, 3u);
  EXPECT_LE(Wide, 12u);
}

TEST(FuzzOracle, CoreUnsatMeansFullUnsat) {
  expectClean(runCheckSatCoreOracle(smokeOptions(40)), 40);
}

TEST(FuzzOracle, RunAllCoversEveryOracle) {
  auto Reports = runAllOracles(smokeOptions(5));
  ASSERT_EQ(Reports.size(), 5u);
  EXPECT_EQ(Reports[0].Oracle, "theory");
  EXPECT_EQ(Reports[1].Oracle, "roundtrip");
  EXPECT_EQ(Reports[2].Oracle, "sygus");
  EXPECT_EQ(Reports[3].Oracle, "pipeline");
  EXPECT_EQ(Reports[4].Oracle, "checksat-core");
}

TEST(FuzzOracle, SameSeedSkipsAndFailuresAreDeterministic) {
  auto A = runTheoryOracle(smokeOptions(60));
  auto B = runTheoryOracle(smokeOptions(60));
  EXPECT_EQ(A.Skipped, B.Skipped);
  EXPECT_EQ(A.Failures.size(), B.Failures.size());
}

} // namespace
