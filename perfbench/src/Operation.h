//===- perfbench/src/Operation.h - One checked synthesis ---------*- C++ -*-===//
///
/// \file
/// An operation is one Table-1 row synthesized once: spec text in memory
/// -> verdict, Mealy machine and emitted JavaScript, through the temos
/// library's public functions. After the timed part, every operation's
/// outputs are checked against the row's checked-in summary golden and
/// by simulating the machine on seeded random inputs.
///
/// The traced form additionally replays each layer's public function on
/// the same inputs, with a span around every call, so the pipeline's
/// time can be split by layer from outside the library.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_OPERATION_H
#define PERFBENCH_OPERATION_H

#include "BenchUtil.h"

#include "benchmarks/Benchmarks.h"
#include "core/Synthesizer.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

/// A row of a workload together with what its outputs must be.
struct RowSpec {
  const temos::BenchmarkSpec *Bench = nullptr;
  GoldenSummary Expected;
};

/// The live objects of one row: its context, parsed specification and
/// synthesizer. Cold workloads make a fresh one per operation; the warm
/// workload keeps one per row across passes so the synthesizer's caches
/// carry over.
struct RowState {
  std::unique_ptr<temos::Context> Ctx;
  temos::Specification Spec;
  std::unique_ptr<temos::Synthesizer> Synth;

  /// Parses \p R's source into a fresh context. Returns nullptr (and
  /// sets \p Err) on a parse error.
  static std::unique_ptr<RowState> parse(const RowSpec &R, std::string &Err);
};

/// What one operation produced, after its check.
struct OpResult {
  double WallSeconds = 0;
  double CpuSeconds = 0;
  size_t JsLoc = 0;
  /// Empty when every check passed; otherwise the first problem found.
  std::string Problem;
};

/// Checks one operation's outputs: realizable verdict, no failure
/// record, machine states and JavaScript LoC equal to the golden, and a
/// \p SimSeed-driven simulation of the machine whose trace violates no
/// `always guarantee` (nor `guarantee`) while the environment keeps the
/// `always assume` block. Returns "" when all hold.
std::string checkOutputs(const RowSpec &Row, const temos::Specification &Spec,
                         temos::Context &Ctx,
                         const temos::PipelineResult &Result,
                         const std::string &Js, uint64_t SimSeed);

/// Runs one untraced operation. With \p Warm null, the row is parsed into
/// a fresh state inside the timed part; otherwise \p Warm's synthesizer
/// is reused (its spec was parsed at set-up).
OpResult runOperation(const RowSpec &Row, RowState *Warm,
                      const temos::PipelineOptions &Opts, uint64_t SimSeed);

/// Counters one traced operation reads from the public result structs
/// and from the replayed calls. Summed over the rows of a pass.
using Counters = std::map<std::string, double>;

/// Runs one traced operation under span \p Parent of \p Log: the
/// pipeline (span core.pipeline), its output check (codegen.check), then
/// a replay of every layer's public function on the same inputs
/// (logic.parse, core.decompose, core.consistency, sygus.generate,
/// tsl2ltl.alphabet, automata.nba, game.synthesize, codegen.emit).
/// Before all that it times one untraced pipeline run, whose difference
/// to core.pipeline is the tracing overhead. Adds this row's counters to
/// \p Sum.
OpResult runTracedOperation(const RowSpec &Row, RowState *Warm,
                            const temos::PipelineOptions &Opts,
                            uint64_t SimSeed, SpanLog &Log, int Parent,
                            Counters &Sum);

} // namespace perfbench

#endif // PERFBENCH_OPERATION_H
