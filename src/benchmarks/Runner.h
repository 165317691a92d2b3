//===- benchmarks/Runner.h - Shared benchmark harness ----------*- C++ -*-===//
///
/// \file
/// Runs one Table-1 benchmark end to end (parse -> pipeline -> codegen)
/// and collects the row data Table 1 reports. Shared by the bench
/// binaries, the integration tests and EXPERIMENTS.md generation.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_BENCHMARKS_RUNNER_H
#define TEMOS_BENCHMARKS_RUNNER_H

#include "benchmarks/Benchmarks.h"
#include "core/Synthesizer.h"

#include <memory>

namespace temos {

/// One Table-1 row as measured on this machine. The row's columns are
/// read from Result.Stats; the context stays alive for callers that
/// want the machine/alphabet (examples, Fig. 4 oracle).
struct BenchmarkRun {
  const BenchmarkSpec *Bench = nullptr;
  bool Parsed = false;
  std::shared_ptr<Context> Ctx;
  Specification Spec;
  /// First pipeline run (the Table-1 measurement).
  PipelineResult Result;
  /// Lines of the emitted JavaScript controller (0 without a machine).
  size_t SynthesizedLoc = 0;
  /// Stats of runs 2..Repeats on the same Synthesizer; with the
  /// incremental engine these show the cross-run NBA/arena reuse the
  /// BENCH_*.json records carry.
  std::vector<PipelineStats> RepeatStats;

  /// Table 1's sum column: psi generation plus TSL synthesis.
  double seconds() const {
    return Result.Stats.PsiGenSeconds + Result.Stats.SynthesisSeconds;
  }
};

/// Parses and synthesizes benchmark \p B. \p Options tweaks the
/// pipeline (ablation benches). \p Repeats > 1 reruns the pipeline on
/// the same Synthesizer, filling RepeatStats.
BenchmarkRun runBenchmark(const BenchmarkSpec &B,
                          const PipelineOptions &Options = {},
                          unsigned Repeats = 1);

/// Formats runs as the Table 1 layout.
std::string formatTable(const std::vector<BenchmarkRun> &Runs);

} // namespace temos

#endif // TEMOS_BENCHMARKS_RUNNER_H
