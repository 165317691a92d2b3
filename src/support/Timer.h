//===- support/Timer.h - Wall-clock and CPU timing -------------*- C++ -*-===//
///
/// \file
/// The stopwatch behind every timing the pipeline reports (the per-phase
/// timings of Table 1 and Figure 4 of the paper). It reads two clocks:
/// with the solver service fanning work out across threads, wall and
/// process-CPU time diverge, and the pipeline reports both per phase
/// (CPU/wall ~ utilized parallelism).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_SUPPORT_TIMER_H
#define TEMOS_SUPPORT_TIMER_H

#include <chrono>
#include <ctime>

namespace temos {

/// Wall-clock and process-CPU stopwatch. Construction starts both
/// clocks.
class Timer {
public:
  Timer() : Start(Clock::now()), CpuStart(cpuNow()) {}

  /// Wall-clock seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Seconds of CPU consumed by every thread of the process since
  /// construction.
  double cpuSeconds() const { return cpuNow() - CpuStart; }

private:
  using Clock = std::chrono::steady_clock;

  static double cpuNow() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
    timespec Ts;
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts) == 0)
      return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
#endif
    return double(std::clock()) / CLOCKS_PER_SEC;
  }

  Clock::time_point Start;
  double CpuStart;
};

} // namespace temos

#endif // TEMOS_SUPPORT_TIMER_H
