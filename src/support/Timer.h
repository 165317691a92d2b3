//===- support/Timer.h - Wall-clock timing ---------------------*- C++ -*-===//
///
/// \file
/// A tiny wall-clock stopwatch used by the synthesis pipeline to report
/// the per-phase timings that Table 1 and Figure 4 of the paper record,
/// plus a process-CPU stopwatch: with the solver service fanning work
/// out across threads, wall and CPU time diverge, and the pipeline
/// reports both per phase (CPU/wall ~ utilized parallelism).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_SUPPORT_TIMER_H
#define TEMOS_SUPPORT_TIMER_H

#include <chrono>
#include <ctime>

namespace temos {

/// Wall-clock stopwatch. Construction starts the clock.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// Process-CPU stopwatch: seconds of CPU consumed by every thread of
/// the process since construction. Construction starts the clock.
class CpuTimer {
public:
  CpuTimer() : Start(now()) {}

  double seconds() const { return now() - Start; }

private:
  static double now() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
    timespec Ts;
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts) == 0)
      return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
#endif
    return double(std::clock()) / CLOCKS_PER_SEC;
  }

  double Start;
};

} // namespace temos

#endif // TEMOS_SUPPORT_TIMER_H
