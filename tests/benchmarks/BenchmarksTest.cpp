//===- tests/benchmarks/BenchmarksTest.cpp - Benchmark suite tests --------===//
///
/// \file
/// Integration tests over the Table-1 benchmark registry: every spec
/// parses; the fast benchmarks synthesize end to end (the full 16-row
/// sweep lives in bench/table1, not in the unit suite).
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Runner.h"

#include "logic/Parser.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

TEST(Benchmarks, RegistryHasSixteenRows) {
  ASSERT_EQ(allBenchmarks().size(), 16u);
  size_t Music = 0, Pong = 0, Escalator = 0, Scheduler = 0;
  for (const BenchmarkSpec &B : allBenchmarks()) {
    Music += B.Family == std::string("Music Synthesizer");
    Pong += B.Family == std::string("Pong");
    Escalator += B.Family == std::string("Escalator");
    Scheduler += B.Family == std::string("CPU Scheduler");
  }
  EXPECT_EQ(Music, 4u);
  EXPECT_EQ(Pong, 4u);
  EXPECT_EQ(Escalator, 4u);
  EXPECT_EQ(Scheduler, 4u);
}

TEST(Benchmarks, FindByName) {
  EXPECT_NE(findBenchmark("CFS"), nullptr);
  EXPECT_NE(findBenchmark("Vibrato"), nullptr);
  EXPECT_EQ(findBenchmark("NoSuchBenchmark"), nullptr);
}

TEST(Benchmarks, AllSpecsParse) {
  for (const BenchmarkSpec &B : allBenchmarks()) {
    Context Ctx;
    auto Spec = parseSpecification(B.Source, Ctx);
    EXPECT_TRUE(Spec.ok()) << B.Name << ": " << Spec.error().str();
    if (!Spec)
      continue;
    EXPECT_FALSE(Spec->AlwaysGuarantees.empty() && Spec->Guarantees.empty())
        << B.Name;
  }
}

/// Parameterized fast-benchmark synthesis: each of these rows must
/// synthesize end to end within the unit-test budget.
class FastBenchmark : public ::testing::TestWithParam<const char *> {};

TEST_P(FastBenchmark, SynthesizesEndToEnd) {
  const BenchmarkSpec *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  BenchmarkRun Run = runBenchmark(*B);
  EXPECT_EQ(Run.Result.Status, Realizability::Realizable) << B->Name;
  EXPECT_GT(Run.SynthesizedLoc, 0u);
  EXPECT_GT(Run.Result.Stats.SpecSize, 0u);
}

INSTANTIATE_TEST_SUITE_P(Table1, FastBenchmark,
                         ::testing::Values("Vibrato", "Modulation",
                                           "Single-Player", "Two-Player",
                                           "Bouncing", "Simple", "Counting",
                                           "Bidirectional", "Smart",
                                           "Round Robin", "Preemptive"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

TEST(Benchmarks, AllSpecsRoundTripThroughPrinter) {
  for (const BenchmarkSpec &B : allBenchmarks()) {
    Context Ctx;
    auto Spec = parseSpecification(B.Source, Ctx);
    ASSERT_TRUE(Spec.ok()) << B.Name << ": " << Spec.error().str();
    std::string Printed = Spec->str();
    Context Ctx2;
    auto Reparsed = parseSpecification(Printed, Ctx2);
    ASSERT_TRUE(Reparsed.ok())
        << B.Name << ": " << Reparsed.error().str() << "\n" << Printed;
    ASSERT_EQ(Reparsed->AlwaysGuarantees.size(),
              Spec->AlwaysGuarantees.size())
        << B.Name;
    for (size_t I = 0; I < Spec->AlwaysGuarantees.size(); ++I)
      EXPECT_EQ(Reparsed->AlwaysGuarantees[I]->str(),
                Spec->AlwaysGuarantees[I]->str())
          << B.Name << " formula " << I;
  }
}

TEST(Benchmarks, SpecSizesInPaperRegime) {
  // |phi|, |P|, |F| stay in the paper's small-integer regime.
  for (const BenchmarkSpec &B : allBenchmarks()) {
    Context Ctx;
    auto Spec = parseSpecification(B.Source, Ctx);
    ASSERT_TRUE(Spec.ok()) << B.Name;
    size_t Size = 0;
    for (const Formula *F : Spec->AlwaysGuarantees)
      Size += F->size();
    for (const Formula *F : Spec->Guarantees)
      Size += F->size();
    EXPECT_GE(Size, 5u) << B.Name;
    EXPECT_LE(Size, 120u) << B.Name;
  }
}

} // namespace
