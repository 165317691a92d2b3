//===- tests/benchmarks/DegradedPathTest.cpp - Budget-exhausted runs ------===//
///
/// \file
/// The degraded tier: proves every bundled benchmark fails *cleanly*
/// when its time budget is exhausted -- status Unknown (never a wrong
/// verdict), at least one Timeout failure record, a non-empty
/// diagnostic-free result object -- and, dually, that a deadline which
/// is armed but never fires is observationally invisible: byte-identical
/// assumptions and emitted code against the no-budget reference, at
/// every pool width. The latter pins the core determinism invariant of
/// the deadline subsystem (polls are read-only; the budget is not part
/// of any cache key).
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "codegen/CodeEmitter.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>
#include <vector>

using namespace temos;

namespace {

struct DegradedBenchmark {
  const char *Name; ///< As accepted by findBenchmark.
};

const DegradedBenchmark DegradedBenchmarks[] = {
    {"Vibrato"}, {"Modulation"}, {"Intertwined"}, {"Multi-effect"},
    {"Single-Player"}, {"Two-Player"}, {"Bouncing"}, {"Automatic"}, {"Simple"},
    {"Counting"}, {"Bidirectional"}, {"Smart"}, {"Round Robin"},
    {"Load Balancer"}, {"Preemptive"}, {"CFS"},
};

/// Prints a row as its benchmark name. gtest's fallback prints the
/// struct's raw bytes, Name pointer included, and that address would
/// leak into the registered test names and change with every build.
void PrintTo(const DegradedBenchmark &P, std::ostream *OS) { *OS << P.Name; }

/// Everything an outside observer can see of one pipeline run.
struct RunArtifacts {
  Realizability Status = Realizability::Unknown;
  std::string Diagnostic;
  std::vector<std::string> Assumptions;
  std::vector<FailureRecord> Failures;
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
  A.Status = R.Status;
  A.Diagnostic = R.Diagnostic;
  A.Failures = R.Stats.Failures;
  for (const Formula *F : R.Assumptions)
    A.Assumptions.push_back(F->str());
  if (R.Status == Realizability::Realizable && R.Machine) {
    A.Js = emitJavaScript(*R.Machine, R.AB, *Spec);
    A.Cpp = emitCpp(*R.Machine, R.AB, *Spec);
  }
  return A;
}

class DegradedPath : public ::testing::TestWithParam<DegradedBenchmark> {};

/// A budget too small for any benchmark: the run must come back Unknown
/// with a structured Timeout record, not crash, hang, or -- worst --
/// return a confident wrong verdict.
TEST_P(DegradedPath, TinyBudgetDegradesCleanly) {
  const DegradedBenchmark &P = GetParam();
  const BenchmarkSpec *B = findBenchmark(P.Name);
  ASSERT_NE(B, nullptr);

  PipelineOptions Options;
  // Expired by the first deadline poll: even 100 microseconds can
  // outlast a warm run of Simple.
  Options.Budget.TotalSeconds = 1e-9;
  RunArtifacts A = runOnce(*B, Options);

  EXPECT_EQ(A.Status, Realizability::Unknown) << P.Name;
  ASSERT_FALSE(A.Failures.empty()) << P.Name;
  bool SawTimeout = false;
  for (const FailureRecord &F : A.Failures) {
    SawTimeout |= F.Kind == FailureKind::Timeout;
    EXPECT_FALSE(F.Phase.empty()) << P.Name;
    EXPECT_FALSE(F.Detail.empty()) << P.Name;
  }
  EXPECT_TRUE(SawTimeout) << P.Name;
  // A timed-out run never emits code.
  EXPECT_TRUE(A.Js.empty()) << P.Name;
}

/// An armed-but-unfired deadline must be observationally invisible:
/// byte-identical verdict, assumptions, and code against no budget at
/// all, at jobs=1 and jobs=4.
TEST_P(DegradedPath, UnfiredDeadlineIsByteIdentical) {
  const DegradedBenchmark &P = GetParam();
  const BenchmarkSpec *B = findBenchmark(P.Name);
  ASSERT_NE(B, nullptr);

  PipelineOptions Reference; // no budget
  RunArtifacts Ref = runOnce(*B, Reference);
  EXPECT_TRUE(Ref.Failures.empty()) << P.Name;

  for (unsigned Jobs : {1u, 4u}) {
    PipelineOptions Budgeted;
    Budgeted.Parallelism.NumThreads = Jobs;
    Budgeted.Budget.TotalSeconds = 3600; // armed, never fires
    RunArtifacts Got = runOnce(*B, Budgeted);

    EXPECT_EQ(Got.Status, Ref.Status) << P.Name << " jobs=" << Jobs;
    EXPECT_EQ(Got.Assumptions, Ref.Assumptions) << P.Name << " jobs=" << Jobs;
    EXPECT_EQ(Got.Js, Ref.Js) << P.Name << " jobs=" << Jobs;
    EXPECT_EQ(Got.Cpp, Ref.Cpp) << P.Name << " jobs=" << Jobs;
    EXPECT_TRUE(Got.Failures.empty()) << P.Name << " jobs=" << Jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DegradedPath, ::testing::ValuesIn(DegradedBenchmarks),
    [](const ::testing::TestParamInfo<DegradedBenchmark> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

/// Per-phase budgets: exhausting only the SyGuS budget must still let
/// the consistency phase finish and the reactive phase run on whatever
/// assumptions survived; the failure record names the sygus phase.
TEST(DegradedPath, SygusBudgetOnlyDegradesSygus) {
  const BenchmarkSpec *B = findBenchmark("Vibrato");
  ASSERT_NE(B, nullptr);

  // A budget no SyGuS run fits in: Vibrato's whole SyGuS phase takes
  // well under 0.1 ms, so a budget of that size can pass unspent.
  PipelineOptions Options;
  Options.Budget.SygusSeconds = 1e-9;
  RunArtifacts A = runOnce(*B, Options);

  bool SawSygusTimeout = false;
  for (const FailureRecord &F : A.Failures)
    SawSygusTimeout |=
        F.Kind == FailureKind::Timeout && F.Phase == "sygus";
  EXPECT_TRUE(SawSygusTimeout);
}

/// The injected spin-hang is refused without a budget to bound it (it
/// would literally never return), and with one the pipeline must come
/// back within 2x the budget carrying a sygus Timeout record.
TEST(DegradedPath, SpinHangTripsWithinTwiceTheBudget) {
  const BenchmarkSpec *B = findBenchmark("Vibrato");
  ASSERT_NE(B, nullptr);
  Context Ctx;
  auto Spec = parseSpecification(B->Source, Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  Synthesizer Synth(Ctx);

  {
    PipelineOptions Unbounded;
    Unbounded.InjectSpinHang = true;
    PipelineResult R = Synth.run(*Spec, Unbounded);
    EXPECT_FALSE(R.Diagnostic.empty());
    EXPECT_TRUE(R.Stats.Failures.empty()); // refused up front, not degraded
  }

  const double Budget = 0.2;
  PipelineOptions Options;
  Options.InjectSpinHang = true;
  Options.Budget.TotalSeconds = Budget;
  Timer Wall;
  PipelineResult R = Synth.run(*Spec, Options);
  // Generous 10x wall ceiling for loaded CI machines; the tight 2x
  // bound is asserted by the fuzz probe and the CLI test.
  EXPECT_LT(Wall.seconds(), 10 * Budget);
  bool SawSygusTimeout = false;
  for (const FailureRecord &F : R.Stats.Failures)
    SawSygusTimeout |=
        F.Kind == FailureKind::Timeout && F.Phase == "sygus";
  EXPECT_TRUE(SawSygusTimeout);
}

} // namespace
