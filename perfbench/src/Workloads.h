//===- perfbench/src/Workloads.h - Workloads and their passes ---*- C++ -*-===//
///
/// \file
/// The benchmark's workloads (which Table-1 rows, how many solver
/// threads, fresh or kept synthesizers), loading their expected outputs,
/// and running one pass over a workload's rows.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Operation.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// A workload runs the pipeline with default options, so one solver
/// thread: at four threads on a shared four-core host the wall time of a
/// run moved by more than the benchmark's largest bound (README.md).
struct Workload {
  const char *Name;
  /// Keep one Synthesizer per row across passes (its NBA cache, arenas
  /// and SMT query cache carry over) instead of a fresh one per
  /// operation.
  bool Warm;
  std::vector<std::string> Rows;
};

/// The workload named \p Name (the BENCHMARK.json workloads and the
/// self-test's "smoke"), or nullptr.
const Workload *findWorkload(const std::string &Name);

/// Every row some workload runs, in Table-1 order.
std::vector<std::string> timedRows();

/// Reads the summary golden of each of \p W's rows from \p GoldenDir.
/// Returns false and sets \p Err when a row or golden is missing or
/// malformed.
bool loadRows(const Workload &W, const std::string &GoldenDir,
              std::vector<RowSpec> &Rows, std::string &Err);

/// Totals of one pass: the timed part of every operation, summed, and
/// the reference slice run after each operation, summed.
struct PassResult {
  double WallSeconds = 0;
  double CpuSeconds = 0;
  SliceTime Reference;
  size_t Slices = 0;
  size_t JsLoc = 0;
  size_t Attempted = 0;
  size_t Failed = 0;
};

/// Runs every row once, in an order drawn from (\p Seed, \p Pass), each
/// operation checked with simulation inputs drawn from the same pair and
/// followed by a reference slice.
/// \p Warm is empty for cold workloads, else one kept state per row.
/// With \p Log non-null the operations are traced under a "pass" span
/// and their counters summed into \p Sum. Failed operations are
/// reported on stderr.
PassResult runPass(const std::vector<RowSpec> &Rows,
                   const std::vector<std::unique_ptr<RowState>> &Warm,
                   uint64_t Seed, uint64_t Pass, SpanLog *Log = nullptr,
                   Counters *Sum = nullptr);

/// Parses every row into a kept state (the warm workload's set-up
/// before its cold pass). Returns false and sets \p Err on a parse
/// error.
bool parseRows(const std::vector<RowSpec> &Rows,
               std::vector<std::unique_ptr<RowState>> &States,
               std::string &Err);

/// Per-layer metrics of one traced pass: self times of the spans from
/// index \p From on, the derived game.solve_s, core.unattributed_s (the
/// part of core.pipeline no replayed call inside Synthesizer::run
/// accounts for), trace.overhead_s and game.cpu_per_wall, the counters
/// in \p C, and spec.<row>.pipeline_s per row.
std::map<std::string, double> layerMetrics(const SpanLog &Log, size_t From,
                                           const Counters &C);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
