//===- bench/table1.cpp - Reproduces Table 1 ------------------------------===//
///
/// \file
/// Regenerates Table 1 of the paper: for all 16 benchmarks, the spec
/// size |phi|, the number of unique predicate terms |P| and update terms
/// |F|, the number of generated assumptions |psi|, the psi-generation
/// time, the TSL (reactive) synthesis time, their sum, and the lines of
/// generated JavaScript.
///
/// Absolute numbers differ from the paper (different machine; our
/// reactive engine is bounded synthesis rather than Strix; the specs are
/// re-authored, see DESIGN.md). The shape claims checked at the end are
/// the ones EXPERIMENTS.md tracks.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/BenchJson.h"
#include "benchmarks/Runner.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>

using namespace temos;

namespace {

/// Table 1 of the paper, for side-by-side comparison.
struct PaperRow {
  const char *Name;
  double PsiGen, Synth, Sum;
  int Loc;
};
const PaperRow PaperRows[] = {
    {"Vibrato", 0.431, 0.914, 1.345, 206},
    {"Modulation", 2.012, 3.983, 5.995, 1352},
    {"Intertwined", 2.157, 3.178, 5.335, 1366},
    {"Multi-effect", 3.145, 81.470, 84.615, 1463},
    {"Single-Player", 0.043, 0.571, 0.614, 169},
    {"Two-Player", 0.181, 0.625, 0.806, 195},
    {"Bouncing", 0.418, 0.808, 1.226, 169},
    {"Automatic", 0.541, 0.988, 1.529, 214},
    {"Simple", 0.011, 0.434, 0.445, 166},
    {"Counting", 0.100, 0.592, 0.692, 241},
    {"Bidirectional", 0.340, 2.291, 1.121, 279},
    {"Smart", 3.034, 0.935, 3.969, 179},
    {"Round Robin", 0.149, 0.740, 0.889, 252},
    {"Load Balancer", 0.531, 2.128, 1.345, 208},
    {"Preemptive", 0.548, 0.765, 1.313, 356},
    {"CFS", 0.533, 2.443, 2.976, 2825},
};

} // namespace

int main(int argc, char **argv) {
  // --bench-json[=DIR]: also write one temos-bench-v1 record per row.
  bool BenchJsonWanted = false;
  std::string BenchJsonDir;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--bench-json") == 0) {
      BenchJsonWanted = true;
    } else if (std::strncmp(argv[I], "--bench-json=", 13) == 0) {
      BenchJsonWanted = true;
      BenchJsonDir = argv[I] + 13;
    } else {
      std::fprintf(stderr, "usage: %s [--bench-json[=DIR]]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== Table 1: Experimental Results (measured) ===\n\n");
  std::vector<BenchmarkRun> Rows;
  for (const BenchmarkSpec &B : allBenchmarks()) {
    // With --bench-json the pipeline runs twice on one Synthesizer so
    // the record includes the cross-run reuse the incremental engine
    // delivers (the Table-1 row still reports the first, cold run).
    BenchmarkRun &Run =
        Rows.emplace_back(runBenchmark(B, {}, BenchJsonWanted ? 2u : 1u));
    if (BenchJsonWanted) {
      size_t States =
          Run.Result.Machine ? Run.Result.Machine->stateCount() : 0;
      const PipelineStats *Repeat =
          Run.RepeatStats.empty() ? nullptr : &Run.RepeatStats.back();
      std::string Json =
          benchJson(B.Name, Run.Result.Status, 1, true, Run.Result.Stats,
                    States, Run.SynthesizedLoc, Repeat);
      std::string Written =
          writeTextFile(BenchJsonDir, benchJsonFileName(B.Name), Json);
      if (Written.empty())
        std::fprintf(stderr, "warning: cannot write bench JSON for %s\n",
                     B.Name);
    }
  }
  std::printf("%s\n", formatTable(Rows).c_str());

  std::printf("=== Paper reference (Xeon E-2286M, Strix+CVC4 backends) "
              "===\n");
  std::printf("%-16s %10s %9s %8s %6s\n", "Benchmark", "psi-gen(s)",
              "synth(s)", "sum(s)", "LoC");
  for (const PaperRow &R : PaperRows)
    std::printf("%-16s %10.3f %9.3f %8.3f %6d\n", R.Name, R.PsiGen, R.Synth,
                R.Sum, R.Loc);

  // Shape checks (EXPERIMENTS.md items).
  std::printf("\n=== Shape checks ===\n");
  int Failures = 0;
  auto Check = [&](bool Ok, const char *What) {
    std::printf("  [%s] %s\n", Ok ? "ok" : "FAIL", What);
    Failures += Ok ? 0 : 1;
  };

  bool AllRealizable = true;
  for (const BenchmarkRun &R : Rows)
    AllRealizable &= R.Result.Status == Realizability::Realizable;
  Check(AllRealizable, "all 16 benchmarks synthesize");

  size_t SynthDominates = 0;
  for (const BenchmarkRun &R : Rows)
    SynthDominates +=
        R.Result.Stats.SynthesisSeconds >= R.Result.Stats.PsiGenSeconds;
  Check(SynthDominates * 2 >= Rows.size(),
        "reactive synthesis time dominates psi generation on most rows");

  double MusicMax = 0;
  std::string MusicSlowest;
  for (const BenchmarkRun &R : Rows)
    if (R.Bench->Family == std::string("Music Synthesizer") &&
        R.seconds() > MusicMax) {
      MusicMax = R.seconds();
      MusicSlowest = R.Bench->Name;
    }
  Check(MusicSlowest == "Multi-effect",
        "Multi-effect is the slowest music benchmark");

  size_t MaxLoc = 0;
  std::string Biggest;
  for (const BenchmarkRun &R : Rows)
    if (R.SynthesizedLoc > MaxLoc) {
      MaxLoc = R.SynthesizedLoc;
      Biggest = R.Bench->Name;
    }
  Check(Biggest == "CFS", "CFS produces the largest synthesized program");

  return Failures == 0 ? 0 : 1;
}
