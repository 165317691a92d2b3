//===- tests/fuzz/FuzzInjectionTest.cpp - Fault-injection coverage --------===//
///
/// \file
/// Every FaultKind perturbs one substrate answer; the matching oracle
/// must notice, shrink, and report a repro. This keeps the harness's
/// own detection and shrinking paths honest: a fuzzer that cannot catch
/// a planted bug proves nothing by running clean.
///
//===----------------------------------------------------------------------===//

#include "tools/fuzz/Fuzz.h"

#include <gtest/gtest.h>

using namespace temos::fuzz;

namespace {

FuzzOptions faultOptions(FaultKind Fault, unsigned Iterations) {
  FuzzOptions Options;
  Options.Seed = 1;
  Options.Iterations = Iterations;
  Options.ArtifactsDir.clear();
  Options.Fault = Fault;
  return Options;
}

void expectDetected(const OracleReport &Report, const char *Oracle) {
  ASSERT_FALSE(Report.ok()) << Oracle
                            << " oracle missed the injected fault";
  const FailureCase &F = Report.Failures.front();
  EXPECT_EQ(F.Oracle, Oracle);
  EXPECT_NE(F.Seed, 0u) << "failure must carry the reproducing seed";
  EXPECT_FALSE(F.Description.empty());
  EXPECT_FALSE(F.Repro.empty()) << "failure must carry a shrunk repro";
}

TEST(FuzzInjection, FlipStrictCaughtByTheoryOracle) {
  expectDetected(runTheoryOracle(faultOptions(FaultKind::FlipStrict, 300)),
                 "theory");
}

TEST(FuzzInjection, DropConjunctCaughtByTheoryOracle) {
  expectDetected(runTheoryOracle(faultOptions(FaultKind::DropConjunct, 300)),
                 "theory");
}

TEST(FuzzInjection, MutatePrintCaughtByRoundTripOracle) {
  expectDetected(
      runRoundTripOracle(faultOptions(FaultKind::MutatePrint, 200)),
      "roundtrip");
}

TEST(FuzzInjection, SkipVerifyCaughtBySygusOracle) {
  expectDetected(runSygusOracle(faultOptions(FaultKind::SkipVerify, 150)),
                 "sygus");
}

TEST(FuzzInjection, LazyConfigCaughtByPipelineOracle) {
  expectDetected(runPipelineOracle(faultOptions(FaultKind::LazyConfig, 15)),
                 "pipeline");
}

/// A core that is not a sub-conjunction of the full formula (here: the
/// core conjoined with `G !pre`, which is always unsat) must be caught
/// deciding an assumption whose full CHECK-SAT formula is sat.
TEST(FuzzInjection, CoreNotSubsetCaughtByCheckSatOracle) {
  expectDetected(
      runCheckSatCoreOracle(faultOptions(FaultKind::CoreNotSubset, 20)),
      "checksat-core");
}

/// A consistency core written with one literal in the wrong polarity
/// is satisfiable: the theory oracle's ground check must catch it.
TEST(FuzzInjection, FlipCoreLiteralCaughtByTheoryOracle) {
  expectDetected(runTheoryOracle(faultOptions(FaultKind::FlipCoreLiteral, 100)),
                 "theory");
}

/// The spin-hang probe is a liveness check on the deadline subsystem: a
/// planted non-terminating SyGuS enumeration under a ~0.3s budget must
/// come back with a sygus Timeout record within 2x the budget. A
/// deadline regression yields zero detections here (or hangs, which the
/// per-test TIMEOUT converts into a failure).
TEST(FuzzInjection, SpinHangCaughtByPipelineOracle) {
  OracleReport Report =
      runPipelineOracle(faultOptions(FaultKind::SpinHang, 5));
  expectDetected(Report, "pipeline");
  const FailureCase &F = Report.Failures.front();
  EXPECT_NE(F.Description.find("tripped the sygus deadline"),
            std::string::npos)
      << F.Description;
  // The repro's body is a run artifact, so `temos-fuzz --replay` re-runs
  // it with the recorded budget and fault.
  EXPECT_NE(F.Repro.find("// temos-artifact: v1"), std::string::npos);
  ReplayResult Replay = replayRepro(F.Repro);
  EXPECT_EQ(Replay.Verdict, ReplayVerdict::Reproduces) << Replay.Report;
}

TEST(FuzzInjection, FaultNamesRoundTrip) {
  const FaultKind Kinds[] = {FaultKind::FlipStrict, FaultKind::DropConjunct,
                             FaultKind::MutatePrint, FaultKind::SkipVerify,
                             FaultKind::LazyConfig, FaultKind::SpinHang,
                             FaultKind::CoreNotSubset,
                             FaultKind::FlipCoreLiteral};
  for (FaultKind K : Kinds) {
    FaultKind Parsed = FaultKind::None;
    ASSERT_TRUE(parseFaultKind(faultName(K), Parsed)) << faultName(K);
    EXPECT_EQ(Parsed, K);
  }
  FaultKind Parsed = FaultKind::None;
  EXPECT_FALSE(parseFaultKind("no-such-fault", Parsed));
}

} // namespace
