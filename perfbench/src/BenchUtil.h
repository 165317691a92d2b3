//===- perfbench/src/BenchUtil.h - Statistics, goldens, spans ---*- C++ -*-===//
///
/// \file
/// The benchmark's own helpers, kept apart from the temos library: order
/// statistics over pass timings, parsing of the checked-in
/// `tests/golden/<row>.summary.golden` files, metric-name sanitizing,
/// clocks, and the in-memory span recorder that the traced run writes
/// out as Chrome trace-event JSON.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCHUTIL_H
#define PERFBENCH_BENCHUTIL_H

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of \p Values (mean of the middle two for an even count).
/// Requires a non-empty input.
double median(std::vector<double> Values);

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(Values, n=4)` (the default "exclusive"
/// method). Requires at least two values.
std::array<double, 3> quartiles(std::vector<double> Values);

/// Metric-name form of a row name: the name temos::benchJsonFileName
/// gives its record file, without the "BENCH_" prefix and ".json"
/// suffix (every character other than a letter, digit, '_' or '-'
/// becomes '_').
std::string sanitizeName(const std::string &Name);

/// File stem of a row's golden files: lower case, every character other
/// than a letter or digit replaced by '_' ("Round Robin" ->
/// "round_robin").
std::string goldenSlug(const std::string &Name);

/// The lines of a `<row>.summary.golden` file the output check compares.
struct GoldenSummary {
  std::string Verdict;
  size_t MachineStates = 0;
  size_t JsLoc = 0;
};

/// Parses the text of a summary golden. Returns nullopt and sets \p Err
/// when the verdict line or the machine-states / LoC lines are missing.
std::optional<GoldenSummary> parseGoldenSummary(const std::string &Text,
                                                std::string &Err);

/// Seconds on the steady clock since an arbitrary fixed origin.
double wallNow();
/// Seconds of CPU used by every thread of this process.
double cpuNow();
/// High-water mark of this process's resident set, in MiB.
double peakRssMb();

/// Wall and CPU seconds of one reference slice.
struct SliceTime {
  double Wall = 0;
  double Cpu = 0;
};

/// Runs one reference slice: a fixed amount of work of the kind the
/// pipeline is made of (hash-map inserts that grow vectors, ordered-set
/// inserts of short vectors), allocated from a buffer of its own so that
/// the program's heap cannot change its cost. The benchmark runs one
/// after every timed unit of work to measure how fast the shared host is
/// running at that moment (README.md).
SliceTime runReferenceSlice();

/// Median wall time of one reference slice on the host the README's
/// figures come from. Reported times are scaled to this speed.
constexpr double NominalSliceSeconds = 0.0043;

/// \p Seconds measured while \p Slices reference slices took
/// \p SliceSeconds, scaled to the speed at which a slice takes
/// NominalSliceSeconds.
double atNominalSpeed(double Seconds, double SliceSeconds, size_t Slices);

/// Spans recorded in memory while the traced run executes. Each span
/// has a name, its parent's index (or -1) and start/end wall times;
/// nothing is written until writeChromeTrace().
class SpanLog {
public:
  struct Span {
    std::string Name;
    int Parent = -1;
    double Start = 0;
    double End = 0;
  };

  /// Opens a span under \p Parent and returns its index.
  int open(std::string Name, int Parent);
  /// Closes span \p Index now.
  void close(int Index);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per span name over the spans in [\p From, end): a span's
  /// duration minus the part its direct children cover, summed by name.
  std::map<std::string, double> selfSeconds(size_t From = 0) const;

  /// Writes every span as a Chrome trace-event ("X" complete events,
  /// microseconds, the parent's name in args). Returns false when the
  /// file cannot be written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::vector<Span> Spans;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, std::string Name, int Parent)
      : Log(Log), Index(Log.open(std::move(Name), Parent)) {}
  ~ScopedSpan() { Log.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int index() const { return Index; }

private:
  SpanLog &Log;
  int Index;
};

} // namespace perfbench

#endif // PERFBENCH_BENCHUTIL_H
