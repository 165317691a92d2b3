//===- tools/temos-fuzz.cpp - Differential fuzzing CLI --------------------===//
///
/// \file
/// Command-line driver for the temos differential fuzzing harness.
///
///   temos-fuzz --seed 7 --iters 500                 # all five oracles
///   temos-fuzz --oracle theory --iters 2000
///   temos-fuzz --inject-fault flip-strict           # must find failures
///   temos-fuzz --replay fuzz-artifacts/theory-seed7-iter12.tslmt
///
/// Exit status: 0 when every oracle ran clean (or an injected fault was
/// demanded and detected, with --inject-fault), 1 when discrepancies were
/// found (or an injected fault went undetected), 2 on usage errors.
/// With --replay: 1 when the failure reproduces, 0 when it is gone, 2
/// when the file could not be checked.
///
//===----------------------------------------------------------------------===//

#include "support/Rng.h"
#include "tools/fuzz/Fuzz.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace temos;
using namespace temos::fuzz;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "\n"
      "Differential fuzzing harness: generates random theory\n"
      "conjunctions, formulas, SyGuS queries and pipeline specs, and\n"
      "cross-checks each substrate against an independent ground oracle.\n"
      "Failures are shrunk and written as standalone repro files.\n"
      "\n"
      "options:\n"
      "  --oracle NAME      all|theory|roundtrip|sygus|pipeline|checksat-core\n"
      "                     (default all)\n"
      "  --seed N           base seed (default 1; TEMOS_SEED overrides)\n"
      "  --iters N          iterations per oracle (default 500)\n"
      "  --artifacts DIR    repro directory (default fuzz-artifacts;\n"
      "                     'none' disables writing)\n"
      "  --inject-fault K   none|flip-strict|drop-conjunct|mutate-print|\n"
      "                     skip-verify|lazy-config|spin-hang|\n"
      "                     core-not-subset|flip-core-literal; the run\n"
      "                     then\n"
      "                     FAILS unless the fault is detected (spin-hang\n"
      "                     plants a non-terminating SyGuS enumeration and\n"
      "                     requires the deadline machinery to trip within\n"
      "                     2x the budget)\n"
      "  --replay FILE      re-run the check a repro file records, under\n"
      "                     its recorded fault, and exit 1 when the failure\n"
      "                     reproduces, 0 when it is gone, 2 when nothing\n"
      "                     could be checked; `// temos-artifact:` files\n"
      "                     (from the temos CLI) re-run the pipeline with\n"
      "                     the recorded options; sygus repros print the\n"
      "                     command that re-runs their oracle (exit 2)\n"
      "  --verbose          per-oracle progress on stderr\n",
      Argv0);
  return 2;
}

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoull(Text.c_str(), &End, 10);
  return End && *End == '\0';
}

int replay(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "temos-fuzz: cannot read '%s'\n", Path.c_str());
    return 2;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  ReplayResult R = replayRepro(Buffer.str());
  std::printf("%s\n", R.Report.c_str());
  return R.Verdict == ReplayVerdict::Reproduces ? 1
         : R.Verdict == ReplayVerdict::Clean    ? 0
                                                : 2;
}

void printReport(const OracleReport &Report, const FuzzOptions &Options) {
  std::printf("oracle %-9s %u iterations, %u skipped, %zu failure%s\n",
              Report.Oracle.c_str(), Report.Iterations, Report.Skipped,
              Report.Failures.size(),
              Report.Failures.size() == 1 ? "" : "s");
  for (const FailureCase &F : Report.Failures) {
    std::printf("  FAILURE [%s] iteration %u -- reproduce with: %s\n",
                F.Oracle.c_str(), F.Iteration,
                rerunCommand(F.Oracle, F.Seed, F.Iteration, Options.Fault)
                    .c_str());
    std::printf("  %s\n", F.Description.c_str());
    if (!F.ArtifactPath.empty())
      std::printf("  shrunk repro written to %s\n", F.ArtifactPath.c_str());
  }
}

} // namespace

int main(int argc, char **argv) {
  FuzzOptions Options;
  std::string Oracle = "all";
  std::string ReplayPath;

  std::vector<std::string> Args(argv + 1, argv + argc);
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto Value = [&](std::string &Out) {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "temos-fuzz: %s needs a value\n", Arg.c_str());
        return false;
      }
      Out = Args[++I];
      return true;
    };
    std::string V;
    if (Arg == "--help" || Arg == "-h")
      return usage(argv[0]) == 2 ? 0 : 0;
    if (Arg == "--oracle") {
      if (!Value(Oracle))
        return 2;
    } else if (Arg == "--seed") {
      if (!Value(V) || !parseUnsigned(V, Options.Seed))
        return usage(argv[0]);
    } else if (Arg == "--iters") {
      uint64_t N = 0;
      if (!Value(V) || !parseUnsigned(V, N) || N == 0)
        return usage(argv[0]);
      Options.Iterations = static_cast<unsigned>(N);
    } else if (Arg == "--artifacts") {
      if (!Value(V))
        return 2;
      Options.ArtifactsDir = V == "none" ? "" : V;
    } else if (Arg == "--inject-fault") {
      if (!Value(V) || !parseFaultKind(V, Options.Fault))
        return usage(argv[0]);
    } else if (Arg == "--replay") {
      if (!Value(ReplayPath))
        return 2;
    } else if (Arg == "--verbose") {
      Options.Verbose = true;
    } else {
      std::fprintf(stderr, "temos-fuzz: unknown option '%s'\n", Arg.c_str());
      return usage(argv[0]);
    }
  }

  if (!ReplayPath.empty())
    return replay(ReplayPath);

  Options.Seed = resolveSeed(Options.Seed);
  std::printf("temos-fuzz: seed %llu, %u iterations per oracle%s%s\n",
              static_cast<unsigned long long>(Options.Seed),
              Options.Iterations,
              Options.Fault != FaultKind::None ? ", injected fault: " : "",
              Options.Fault != FaultKind::None ? faultName(Options.Fault)
                                               : "");

  std::vector<OracleReport> Reports;
  if (Oracle == "all") {
    Reports = runAllOracles(Options);
  } else if (Oracle == "theory") {
    Reports.push_back(runTheoryOracle(Options));
  } else if (Oracle == "roundtrip") {
    Reports.push_back(runRoundTripOracle(Options));
  } else if (Oracle == "sygus") {
    Reports.push_back(runSygusOracle(Options));
  } else if (Oracle == "pipeline") {
    Reports.push_back(runPipelineOracle(Options));
  } else if (Oracle == "checksat-core") {
    Reports.push_back(runCheckSatCoreOracle(Options));
  } else {
    std::fprintf(stderr, "temos-fuzz: unknown oracle '%s'\n", Oracle.c_str());
    return usage(argv[0]);
  }

  size_t Failures = 0;
  for (const OracleReport &Report : Reports) {
    printReport(Report, Options);
    Failures += Report.Failures.size();
  }

  if (Options.Fault != FaultKind::None) {
    // A fault-injection run must *find* the planted bug.
    if (Failures == 0) {
      std::printf("temos-fuzz: injected fault '%s' was NOT detected\n",
                  faultName(Options.Fault));
      return 1;
    }
    std::printf("temos-fuzz: injected fault '%s' detected and shrunk\n",
                faultName(Options.Fault));
    return 0;
  }

  if (Failures != 0) {
    std::printf("temos-fuzz: %zu failure%s -- reproduce with TEMOS_SEED=%llu\n",
                Failures, Failures == 1 ? "" : "s",
                static_cast<unsigned long long>(Options.Seed));
    return 1;
  }
  std::printf("temos-fuzz: all oracles clean\n");
  return 0;
}
