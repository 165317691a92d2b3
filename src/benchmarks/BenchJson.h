//===- benchmarks/BenchJson.h - Machine-readable bench results -*- C++ -*-===//
///
/// \file
/// Serializes one pipeline run into the "temos-bench-v1" JSON document
/// that `temos --bench-json` and the bench binaries emit as
/// BENCH_<name>.json. The schema (documented in docs/ARCHITECTURE.md)
/// carries the Table-1 phase timings plus the incremental-engine
/// counters (NBA/expansion/SMT cache traffic, per-reactive-invocation
/// reuse), so CI can gate on perf regressions without scraping the
/// human-readable summary -- which stays byte-stable on purpose.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_BENCHMARKS_BENCHJSON_H
#define TEMOS_BENCHMARKS_BENCHJSON_H

#include "core/Synthesizer.h"

#include <string>

namespace temos {

/// Renders the temos-bench-v1 document for one run. \p MachineStates
/// and \p JsLoc are 0 when no machine was synthesized. A non-null
/// \p Repeat adds a "repeat" object with the stats of a second pipeline
/// run on the same engine -- the record that demonstrates cross-run
/// NBA/arena reuse (nba_cache.hits > 0, smaller game wall time).
std::string benchJson(const std::string &Name, Realizability Status,
                      unsigned Jobs, bool CacheEnabled,
                      const PipelineStats &Stats, size_t MachineStates,
                      size_t JsLoc, const PipelineStats *Repeat = nullptr);

/// "BENCH_<name>.json" with the name sanitized to [A-Za-z0-9_-].
std::string benchJsonFileName(const std::string &Name);

} // namespace temos

#endif // TEMOS_BENCHMARKS_BENCHJSON_H
