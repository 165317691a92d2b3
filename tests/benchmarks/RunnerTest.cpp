//===- tests/benchmarks/RunnerTest.cpp - Harness formatting tests ---------===//

#include "benchmarks/Runner.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

TEST(Runner, FormatTableLaysOutFamilies) {
  const BenchmarkSpec Vibrato{"Music Synthesizer", "Vibrato", ""};
  const BenchmarkSpec Modulation{"Music Synthesizer", "Modulation", ""};
  const BenchmarkSpec Bouncing{"Pong", "Bouncing", ""};
  std::vector<BenchmarkRun> Rows;
  BenchmarkRun A;
  A.Bench = &Vibrato;
  A.Parsed = true;
  A.Result.Status = Realizability::Realizable;
  A.Result.Stats.SpecSize = 22;
  A.Result.Stats.PredicateCount = 2;
  A.Result.Stats.UpdateTermCount = 4;
  A.Result.Stats.AssumptionCount = 3;
  A.Result.Stats.PsiGenSeconds = 0.1;
  A.Result.Stats.SynthesisSeconds = 0.9;
  A.SynthesizedLoc = 206;
  Rows.push_back(A);
  BenchmarkRun B = A;
  B.Bench = &Modulation;
  Rows.push_back(B);
  BenchmarkRun C = A;
  C.Bench = &Bouncing;
  C.Result.Status = Realizability::Unrealizable;
  Rows.push_back(C);

  std::string Table = formatTable(Rows);
  // Family headers appear once each.
  EXPECT_NE(Table.find("Music Synthesizer"), std::string::npos);
  EXPECT_NE(Table.find("Pong"), std::string::npos);
  EXPECT_EQ(Table.find("Music Synthesizer"),
            Table.rfind("Music Synthesizer"));
  // Rows and statuses.
  EXPECT_NE(Table.find("Vibrato"), std::string::npos);
  EXPECT_NE(Table.find("UNREALIZABLE"), std::string::npos);
  EXPECT_NE(Table.find("ok"), std::string::npos);
  // The sum column is psi generation plus TSL synthesis.
  EXPECT_NE(Table.find("0.100     0.900    1.000"), std::string::npos);
}

TEST(Runner, FormatTableMarksParseErrors) {
  const BenchmarkSpec Broken{"X", "Broken", ""};
  BenchmarkRun Bad;
  Bad.Bench = &Broken;
  std::string Table = formatTable({Bad});
  EXPECT_NE(Table.find("PARSE-ERROR"), std::string::npos);
}

TEST(Runner, RunBenchmarkFillsRow) {
  const BenchmarkSpec *B = findBenchmark("Simple");
  ASSERT_NE(B, nullptr);
  BenchmarkRun Run = runBenchmark(*B);
  EXPECT_TRUE(Run.Parsed);
  EXPECT_EQ(Run.Bench, B);
  EXPECT_EQ(Run.Result.Status, Realizability::Realizable);
  EXPECT_GT(Run.Result.Stats.SpecSize, 0u);
  EXPECT_GT(Run.SynthesizedLoc, 0u);
  EXPECT_EQ(Run.Bench->Family, std::string("Escalator"));
  ASSERT_TRUE(Run.Result.Machine.has_value());
  EXPECT_GE(Run.Result.Machine->stateCount(), 1u);
}

TEST(Runner, RunBenchmarkHonorsOptions) {
  const BenchmarkSpec *B = findBenchmark("Simple");
  ASSERT_NE(B, nullptr);
  PipelineOptions NoObligations;
  NoObligations.Decomp.MaxObligations = 0;
  NoObligations.Consistency.MaxSubsetSize = 0;
  BenchmarkRun Run = runBenchmark(*B, NoObligations);
  EXPECT_EQ(Run.Result.Stats.AssumptionCount, 0u);
  // "Simple" needs no assumptions, so it still synthesizes.
  EXPECT_EQ(Run.Result.Status, Realizability::Realizable);
}

} // namespace
