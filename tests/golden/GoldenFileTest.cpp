//===- tests/golden/GoldenFileTest.cpp - Checked-in output corpus ---------===//
///
/// \file
/// Diffs the CLI's --emit=assumptions and --emit=summary output for the
/// bundled benchmarks against the checked-in corpus under tests/golden/.
/// Timings in summaries are normalized to <T>s, matching
/// scripts/regen_goldens.sh; everything else must be byte-identical.
/// After an intentional output change, regenerate with:
///
///   scripts/regen_goldens.sh build/src/tools/temos
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <regex>
#include <sstream>
#include <string>

namespace {

struct GoldenBenchmark {
  const char *Name; ///< As accepted by temos --benchmark.
  const char *Slug; ///< File stem under tests/golden/.
};

const GoldenBenchmark Benchmarks[] = {
    {"Vibrato", "vibrato"},
    {"Modulation", "modulation"},
    {"Intertwined", "intertwined"},
    {"Multi-effect", "multi_effect"},
    {"Single-Player", "single_player"},
    {"Two-Player", "two_player"},
    {"Bouncing", "bouncing"},
    {"Automatic", "automatic"},
    {"Simple", "simple"},
    {"Counting", "counting"},
    {"Bidirectional", "bidirectional"},
    {"Smart", "smart"},
    {"Round Robin", "round_robin"},
    {"Load Balancer", "load_balancer"},
    {"Preemptive", "preemptive"},
    {"CFS", "cfs"},
};

/// Prints a row as its benchmark name. gtest's fallback prints the
/// struct's raw bytes, pointers included, and those addresses would leak
/// into the registered test names and change with every build.
void PrintTo(const GoldenBenchmark &B, std::ostream *OS) { *OS << B.Name; }

std::pair<int, std::string> runCli(const std::string &Args) {
  std::string Command =
      std::string(TEMOS_CLI_PATH) + " " + Args + " 2>/dev/null";
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

/// Wall/CPU timings vary per run; replace them like regen_goldens.sh
/// does so summaries compare stably.
std::string normalizeTimings(const std::string &Text) {
  static const std::regex Timing("[0-9]+\\.[0-9]+s");
  return std::regex_replace(Text, Timing, "<T>s");
}

/// Reads a golden file; nullopt when it does not exist. An *empty*
/// golden is legitimate (benchmarks with |psi|=0 emit no assumptions),
/// so existence and emptiness must stay distinct.
std::optional<std::string> readGolden(const std::string &Slug,
                                      const std::string &Kind) {
  std::string Path =
      std::string(TEMOS_GOLDEN_DIR) + "/" + Slug + "." + Kind + ".golden";
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

class GoldenFileTest : public ::testing::TestWithParam<GoldenBenchmark> {};

TEST_P(GoldenFileTest, AssumptionsMatchCorpus) {
  const GoldenBenchmark &B = GetParam();
  auto Expected = readGolden(B.Slug, "assumptions");
  ASSERT_TRUE(Expected.has_value())
      << "missing golden file for " << B.Slug
      << "; run scripts/regen_goldens.sh";
  auto [Code, Out] =
      runCli("--benchmark \"" + std::string(B.Name) + "\" --emit=assumptions");
  ASSERT_EQ(Code, 0);
  EXPECT_EQ(Out, *Expected)
      << "assumption drift for '" << B.Name
      << "'; if intentional, regenerate with scripts/regen_goldens.sh";
}

TEST_P(GoldenFileTest, SummaryMatchesCorpus) {
  const GoldenBenchmark &B = GetParam();
  auto Expected = readGolden(B.Slug, "summary");
  ASSERT_TRUE(Expected.has_value())
      << "missing golden file for " << B.Slug
      << "; run scripts/regen_goldens.sh";
  auto [Code, Out] =
      runCli("--benchmark \"" + std::string(B.Name) + "\" --emit=summary");
  ASSERT_EQ(Code, 0);
  EXPECT_EQ(normalizeTimings(Out), *Expected)
      << "summary drift for '" << B.Name
      << "'; if intentional, regenerate with scripts/regen_goldens.sh";
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenFileTest,
                         ::testing::ValuesIn(Benchmarks),
                         [](const auto &Info) {
                           std::string Name = Info.param.Slug;
                           return Name;
                         });

} // namespace
