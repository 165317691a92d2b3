//===- tests/tools/CliTest.cpp - temos CLI end-to-end tests ---------------===//

#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unistd.h>

namespace {

/// Runs the CLI with \p Args; returns (exit code, stdout).
std::pair<int, std::string> runCli(const std::string &Args) {
  std::string Command = std::string(TEMOS_CLI_PATH) + " " + Args +
                        " 2>/dev/null";
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return {-1, ""};
  std::string Out;
  char Buffer[512];
  while (fgets(Buffer, sizeof(Buffer), Pipe))
    Out += Buffer;
  int Status = pclose(Pipe);
  return {WEXITSTATUS(Status), Out};
}

/// Runs the CLI with \p Args; returns (exit code, stderr). stdout is
/// discarded — used for warning/diagnostic assertions, which the tool
/// prints to stderr so piped output stays clean.
std::pair<int, std::string> runCliStderr(const std::string &Args) {
  std::string Command = std::string(TEMOS_CLI_PATH) + " " + Args +
                        " 2>&1 1>/dev/null";
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return {-1, ""};
  std::string Out;
  char Buffer[512];
  while (fgets(Buffer, sizeof(Buffer), Pipe))
    Out += Buffer;
  int Status = pclose(Pipe);
  return {WEXITSTATUS(Status), Out};
}

std::string writeSpec(const std::string &Name, const std::string &Body) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  // ctest runs these tests as parallel processes sharing TempDir(), and
  // many write the same file: write a private copy and rename it into
  // place, so a concurrent CLI run never reads a half-written spec.
  std::string Private = Path + "." + std::to_string(getpid());
  {
    std::ofstream Out(Private);
    Out << Body;
  }
  std::rename(Private.c_str(), Path.c_str());
  return Path;
}

const char *CounterSpec = R"(
#LIA#
spec Counter
cells { int x = 0; }
always guarantee {
  [x <- x + 1] || [x <- x - 1];
  x = 0 -> F (x = 2);
}
)";

TEST(Cli, ListShowsSixteenBenchmarks) {
  auto [Code, Out] = runCli("--list");
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(temos::split(temos::trim(Out), '\n').size(), 16u);
  EXPECT_NE(Out.find("CFS"), std::string::npos);
  EXPECT_NE(Out.find("Vibrato"), std::string::npos);
}

TEST(Cli, SynthesizesSpecFile) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Out] = runCli(Path);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Out.find("Counter: realizable"), std::string::npos);
  EXPECT_NE(Out.find("|psi|=3"), std::string::npos);
}

TEST(Cli, SimulatesSteps) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Out] = runCli("--simulate 3 " + Path);
  EXPECT_EQ(Code, 0);
  auto Lines = temos::split(temos::trim(Out), '\n');
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_NE(Lines[0].find("step 0: x="), std::string::npos);
}

TEST(Cli, EmitsJavaScriptViaEmitFlag) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Out] = runCli("--emit=js " + Path);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Out.find("function createController"), std::string::npos);
}

TEST(Cli, EmitsCppViaEmitFlag) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Out] = runCli("--emit=cpp " + Path);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Out.find("struct CounterController"), std::string::npos);
}

TEST(Cli, PrintsAssumptionsViaEmitFlag) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Out] = runCli("--emit=assumptions " + Path);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Out.find("X X (x = 2)"), std::string::npos);
}

TEST(Cli, RemovedEmitSpellingsAreUsageErrors) {
  // --js, --cpp and --assumptions were replaced by --emit=...; the old
  // spellings are unknown flags now.
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  for (const char *Flag : {"--js", "--cpp", "--assumptions"}) {
    SCOPED_TRACE(Flag);
    auto [Code, Err] = runCliStderr(std::string(Flag) + " " + Path);
    EXPECT_EQ(Code, 2);
    EXPECT_NE(Err.find("usage: "), std::string::npos) << "stderr was: " << Err;
  }
}

TEST(Cli, EmitFlagDoesNotWarn) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Err] = runCliStderr("--emit=js " + Path);
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Err, "");
}

TEST(Cli, ParseErrorOnStderrNamesLineAndColumn) {
  std::string Path = writeSpec("cli_badcol.tslmt",
                               "inputs { bool p; }\nalways guarantee {\n"
                               "  q;\n}\n");
  auto [Code, Err] = runCliStderr(Path);
  EXPECT_NE(Code, 0);
  EXPECT_NE(Err.find("line 3, col 3: unknown signal 'q'"), std::string::npos)
      << "stderr was: " << Err;
}

TEST(Cli, EmitSummaryShowsSolverJobs) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Out] = runCli("--emit=summary " + Path);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Out.find("solver jobs:"), std::string::npos);
  EXPECT_NE(Out.find("cache on"), std::string::npos);
}

TEST(Cli, JobsFlagSynthesizesSameSpec) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Serial, SerialOut] = runCli("--emit=assumptions --jobs 1 " + Path);
  auto [Par, ParOut] = runCli("--emit=assumptions --jobs 4 " + Path);
  EXPECT_EQ(Serial, 0);
  EXPECT_EQ(Par, 0);
  // Determinism guarantee: the emitted assumption list is byte-identical
  // across thread counts.
  EXPECT_EQ(SerialOut, ParOut);
}

TEST(Cli, NoCacheFlagDisablesCache) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Out] = runCli("--no-cache " + Path);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Out.find("cache off"), std::string::npos);
  EXPECT_NE(Out.find("0 hits, 0 misses"), std::string::npos);
}

TEST(Cli, UnknownEmitValueFails) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Out] = runCli("--emit=fortran " + Path);
  EXPECT_EQ(Code, 2);
  (void)Out;
}

TEST(Cli, ZeroJobsFails) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Out] = runCli("--jobs 0 " + Path);
  EXPECT_EQ(Code, 2);
  (void)Out;
}

TEST(Cli, UnknownBenchmarkFails) {
  auto [Code, Out] = runCli("--benchmark NoSuchThing");
  EXPECT_NE(Code, 0);
  (void)Out;
}

TEST(Cli, MissingFileFails) {
  auto [Code, Out] = runCli("/nonexistent/spec.tslmt");
  EXPECT_NE(Code, 0);
  (void)Out;
}

TEST(Cli, ParseErrorReportsLine) {
  std::string Path = writeSpec("cli_bad.tslmt", "inputs { zzz p; }");
  auto [Code, Out] = runCli(Path);
  EXPECT_NE(Code, 0);
  (void)Out;
}

TEST(Cli, UnrealizableSpecExitsNonZero) {
  std::string Path = writeSpec("cli_unreal.tslmt", R"(
#LIA#
spec Hopeless
inputs { int a; }
cells { int x = 0; }
always guarantee {
  [x <- x + 1] || [x <- x];
  a < x;
}
)");
  auto [Code, Out] = runCli(Path);
  EXPECT_NE(Code, 0);
  (void)Out;
}

//===----------------------------------------------------------------------===//
// Exit-code contract (documented in the README):
//   0 success, 1 input error, 2 usage error, 3 unrealizable,
//   4 resource budget exhausted (Unknown).
//===----------------------------------------------------------------------===//

TEST(Cli, ExitCodesAreDistinctPerOutcome) {
  std::string Unreal = writeSpec("cli_unreal3.tslmt", R"(
#LIA#
spec Hopeless
inputs { int a; }
cells { int x = 0; }
always guarantee {
  [x <- x + 1] || [x <- x];
  a < x;
}
)");
  EXPECT_EQ(runCli(Unreal).first, 3);
  EXPECT_EQ(runCli("/nonexistent/spec.tslmt").first, 1);
  EXPECT_EQ(runCli("--benchmark NoSuchThing").first, 1);
  std::string Good = writeSpec("cli_counter.tslmt", CounterSpec);
  EXPECT_EQ(runCli(Good).first, 0);
}

TEST(Cli, BadBudgetFlagsAreUsageErrors) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  EXPECT_EQ(runCli("--time-budget abc " + Path).first, 2);
  EXPECT_EQ(runCli("--time-budget -1 " + Path).first, 2);
  EXPECT_EQ(runCli("--inject-fault=other " + Path).first, 2);
  // spin-hang without any budget to bound it would literally never
  // return; the CLI must refuse it up front.
  EXPECT_EQ(runCli("--inject-fault=spin-hang " + Path).first, 2);
}

TEST(Cli, NonFiniteTimeBudgetsAreUsageErrors) {
  // inf used to expire at once (the cast to clock ticks overflowed) and
  // nan silently meant "unlimited"; both are refused up front.
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  for (const char *Value : {"inf", "nan"}) {
    auto [Code, Err] =
        runCliStderr(std::string("--time-budget ") + Value + " " + Path);
    EXPECT_EQ(Code, 2) << Value;
    EXPECT_NE(Err.find("usage:"), std::string::npos) << Value;
  }
}

TEST(Cli, BadSimulateCountsAreUsageErrors) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  for (const char *Value : {"abc", "-3", "2x"}) {
    auto [Code, Err] =
        runCliStderr(std::string("--simulate ") + Value + " " + Path);
    EXPECT_EQ(Code, 2) << Value;
    EXPECT_NE(Err.find("usage:"), std::string::npos) << Value;
  }
}

TEST(Cli, UnfiredTimeBudgetKeepsOutputByteIdentical) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [RefCode, RefOut] = runCli("--emit=js " + Path);
  EXPECT_EQ(RefCode, 0);
  // 1e10 s is past the clock's tick range: it must saturate, not expire.
  for (const char *Budget : {"3600", "1e10"}) {
    auto [BudCode, BudOut] =
        runCli(std::string("--emit=js --time-budget ") + Budget + " " + Path);
    EXPECT_EQ(BudCode, 0) << Budget;
    EXPECT_EQ(RefOut, BudOut) << Budget;
  }
}

/// The acceptance bar for the deadline subsystem: an injected
/// non-terminating SyGuS search under a 2s budget must exit with the
/// resource-exhausted code within 4s of wall clock, report a timeout in
/// the summary, and dump an artifact that temos-fuzz can replay.
TEST(Cli, SpinHangTripsDeadlineAndDumpsReplayableArtifact) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  std::string Dir = ::testing::TempDir() + "/cli_artifacts";

  auto Start = std::chrono::steady_clock::now();
  auto [Code, Err] = runCliStderr("--emit=summary --time-budget 2 "
                                  "--inject-fault=spin-hang --artifacts " +
                                  Dir + " " + Path);
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

  EXPECT_EQ(Code, 4) << "stderr was: " << Err;
  EXPECT_LT(Wall, 4.0) << "deadline failed to trip within 2x the budget";
  EXPECT_NE(Err.find("timeout"), std::string::npos) << "stderr was: " << Err;

  // The artifact is announced on stderr and must exist on disk with the
  // replayable header.
  std::string Artifact = Dir + "/temos-artifact-Counter.tslmt";
  EXPECT_NE(Err.find(Artifact), std::string::npos) << "stderr was: " << Err;
  std::ifstream In(Artifact);
  ASSERT_TRUE(In.good()) << Artifact;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  EXPECT_NE(Buf.str().find("// temos-artifact: v1"), std::string::npos);
  EXPECT_NE(Buf.str().find("inject-fault=spin-hang"), std::string::npos);

  // temos-fuzz --replay re-runs the artifact with the recorded options
  // and exits 1 because the degradation reproduces.
  std::string Replay = std::string(TEMOS_FUZZ_CLI_PATH) + " --replay " +
                       Artifact + " 2>/dev/null";
  FILE *Pipe = popen(Replay.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  std::string Out;
  char Buffer[512];
  while (fgets(Buffer, sizeof(Buffer), Pipe))
    Out += Buffer;
  int Status = pclose(Pipe);
  EXPECT_EQ(WEXITSTATUS(Status), 1) << "replay output: " << Out;
  EXPECT_NE(Out.find("degradation reproduces"), std::string::npos) << Out;
}

TEST(Cli, ReplayOfAFileWithoutHeaderExitsTwo) {
  // A plain spec carries no `// temos-fuzz repro:` or `// temos-artifact:`
  // header, so there is nothing to check: exit 2, never 0 ("gone").
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  std::string Replay = std::string(TEMOS_FUZZ_CLI_PATH) + " --replay " +
                       Path + " >/dev/null 2>&1";
  int Status = std::system(Replay.c_str());
  EXPECT_EQ(WEXITSTATUS(Status), 2);
}

/// Runs \p Spec (named \p Name) with an artifacts directory and checks
/// the budget-refusal contract: exit 4, a state-budget record whose
/// detail contains \p Detail, and the replayable artifact on disk.
void expectBudgetRefusal(const std::string &Name, const std::string &Spec,
                         const std::string &Detail) {
  std::string Path = writeSpec("cli_" + Name + ".tslmt", Spec);
  std::string Dir = ::testing::TempDir() + "/cli_artifacts_" + Name;
  auto [Code, Err] = runCliStderr("--artifacts " + Dir + " " + Path);
  EXPECT_EQ(Code, 4) << "stderr was: " << Err;
  EXPECT_NE(Err.find("unknown"), std::string::npos) << "stderr was: " << Err;
  EXPECT_NE(Err.find("failure: state-budget"), std::string::npos)
      << "stderr was: " << Err;
  EXPECT_NE(Err.find(Detail), std::string::npos) << "stderr was: " << Err;
  std::ifstream In(Dir + "/temos-artifact-" + Name + ".tslmt");
  EXPECT_TRUE(In.good()) << "no artifact; stderr was: " << Err;
}

TEST(Cli, TooManyAcceptanceSetsEndUnknown) {
  // G (X^k p -> [c <- True()]) for k < 66: the negated spec has 66
  // eventualities, two more than the tableau's defer mask tracks.
  std::string Spec = "#LIA#\nspec ManyEventualities\ninputs { bool p; }\n"
                     "cells { bool c; }\nalways guarantee {\n";
  for (int K = 0; K < 66; ++K) {
    std::string Next;
    for (int I = 0; I < K; ++I)
      Next += "X ";
    Spec += "  G (" + Next + "p -> [c <- True()]);\n";
  }
  expectBudgetRefusal("ManyEventualities", Spec + "}\n",
                      "66 acceptance sets; the tableau tracks at most 64");
}

TEST(Cli, TooManyPredicatesEndUnknown) {
  // 21 boolean inputs, each a predicate term of its own guarantee.
  std::string Spec = "#LIA#\nspec ManyPredicates\ninputs { bool p0";
  for (int I = 1; I < 21; ++I)
    Spec += ", p" + std::to_string(I);
  Spec += "; }\ncells { bool c; }\nalways guarantee {\n";
  for (int I = 0; I < 21; ++I)
    Spec += "  p" + std::to_string(I) + " -> [c <- True()];\n";
  expectBudgetRefusal(
      "ManyPredicates", Spec + "}\n",
      "21 predicate terms; the explicit alphabet holds at most 20");
}

TEST(Cli, DegradedSummaryListsFailures) {
  std::string Path = writeSpec("cli_counter.tslmt", CounterSpec);
  auto [Code, Err] = runCliStderr(
      "--emit=summary --time-budget 0.0001 --artifacts none " + Path);
  EXPECT_EQ(Code, 4);
  EXPECT_NE(Err.find("failure:"), std::string::npos) << "stderr was: " << Err;
}

} // namespace
