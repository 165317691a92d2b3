//===- tests/fuzz/FuzzReplayTest.cpp - Every repro replays ----------------===//
///
/// \file
/// For each injected fault, the first repro the matching oracle writes
/// goes through the single replay entry point and must reproduce under
/// the fault recorded in its header. A sygus repro is not a spec: replay
/// refuses it and names the command that re-runs its oracle.
///
//===----------------------------------------------------------------------===//

#include "tools/fuzz/Fuzz.h"

#include <gtest/gtest.h>

using namespace temos::fuzz;

namespace {

struct ReplayCase {
  FaultKind Fault;
  OracleReport (*Run)(const FuzzOptions &);
  unsigned Iterations;
};

class FuzzReplay : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(FuzzReplay, FirstReproReplays) {
  const ReplayCase &C = GetParam();
  FuzzOptions Options;
  Options.Seed = 1;
  Options.Iterations = C.Iterations;
  Options.ArtifactsDir.clear();
  Options.Fault = C.Fault;
  OracleReport Report = C.Run(Options);
  ASSERT_FALSE(Report.ok()) << "the oracle missed the injected fault";
  const FailureCase &F = Report.Failures.front();

  std::string Header = "// temos-fuzz repro: oracle=" + F.Oracle +
                       " seed=1 iteration=" + std::to_string(F.Iteration) +
                       " fault=" + faultName(C.Fault) + "\n";
  ASSERT_EQ(F.Repro.rfind(Header, 0), 0u) << F.Repro;

  ReplayResult Replay = replayRepro(F.Repro);
  if (C.Fault == FaultKind::SkipVerify) {
    EXPECT_EQ(Replay.Verdict, ReplayVerdict::Unchecked) << Replay.Report;
    EXPECT_NE(Replay.Report.find(rerunCommand("sygus", 1, F.Iteration,
                                              FaultKind::SkipVerify)),
              std::string::npos)
        << Replay.Report;
    return;
  }
  EXPECT_EQ(Replay.Verdict, ReplayVerdict::Reproduces)
      << Replay.Report << "\n--- repro\n"
      << F.Repro;
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FuzzReplay,
    ::testing::Values(ReplayCase{FaultKind::FlipStrict, runTheoryOracle, 300},
                      ReplayCase{FaultKind::DropConjunct, runTheoryOracle, 300},
                      ReplayCase{FaultKind::MutatePrint, runRoundTripOracle,
                                 200},
                      ReplayCase{FaultKind::SkipVerify, runSygusOracle, 150},
                      ReplayCase{FaultKind::LazyConfig, runPipelineOracle, 15},
                      ReplayCase{FaultKind::SpinHang, runPipelineOracle, 5}),
    [](const ::testing::TestParamInfo<ReplayCase> &Info) {
      std::string Name = faultName(Info.param.Fault);
      for (char &Ch : Name)
        if (Ch == '-')
          Ch = '_';
      return Name;
    });

} // namespace
