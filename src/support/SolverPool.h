//===- support/SolverPool.h - Fixed-size worker pool -----------*- C++ -*-===//
///
/// \file
/// A fixed-size thread pool with a FIFO work queue, sized for the solver
/// service: the pipeline's embarrassingly parallel phases (the Sec. 4.2
/// powerset consistency check and per-obligation SyGuS enumeration) fan
/// their independent SMT/SyGuS tasks out across the workers.
///
/// A pool constructed with one thread spawns no workers at all: submit()
/// runs the task inline on the caller's thread -- no scheduling, no
/// locks on the hot path. SyGuS generation and counting-game
/// exploration fan out through forEach() at every width and merge the
/// results in task order, so their one-thread run executes the same
/// code, in the same order, as a wider one.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_SUPPORT_SOLVERPOOL_H
#define TEMOS_SUPPORT_SOLVERPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace temos {

/// Fixed-size thread pool with a work queue.
class SolverPool {
public:
  /// Creates a pool of \p NumThreads workers. \p NumThreads <= 1 creates
  /// an inline pool: no threads, submit() executes immediately.
  explicit SolverPool(unsigned NumThreads);
  ~SolverPool();

  SolverPool(const SolverPool &) = delete;
  SolverPool &operator=(const SolverPool &) = delete;

  /// Number of worker threads (0 for an inline pool).
  size_t workerCount() const { return Workers.size(); }
  /// Degree of parallelism: max(1, workerCount()).
  size_t parallelism() const { return Workers.empty() ? 1 : Workers.size(); }

  /// Enqueues \p Task. Inline pools run it before returning.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished. Tasks may submit
  /// further tasks; wait() covers those too.
  ///
  /// Exception safety: an exception escaping a pooled task never
  /// reaches the worker thread's top frame (which would be
  /// std::terminate) -- it is captured as a std::exception_ptr, tagged
  /// with the task's submission ticket, and the remaining tasks still
  /// run to completion. wait() then rethrows the captured exception
  /// with the *smallest ticket* -- i.e. first in merge order -- so the
  /// surfaced error is deterministic across pool widths and matches
  /// what an inline pool (which executes tasks in submission order and
  /// propagates the first throw naturally) would have raised.
  void wait();

  /// Runs Body(0) .. Body(N-1), distributing indices across workers in
  /// submission order, and waits for completion. Chunks adjacent indices
  /// together to amortize queue overhead on fine-grained work. Rethrows
  /// the smallest-index exception via wait().
  void forEach(size_t N, const std::function<void(size_t)> &Body);

private:
  void workerLoop();
  void rethrowFirstCaptured(std::unique_lock<std::mutex> &Lock);

  std::vector<std::thread> Workers;
  std::queue<std::pair<uint64_t, std::function<void()>>> Queue;
  mutable std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t InFlight = 0;
  bool Stopping = false;
  /// Submission ticket of the next enqueued task; pairs each task with
  /// its merge-order position for deterministic rethrow.
  uint64_t NextTicket = 0;
  /// Exceptions captured from pooled tasks, tagged with their ticket.
  std::vector<std::pair<uint64_t, std::exception_ptr>> Captured;
};

} // namespace temos

#endif // TEMOS_SUPPORT_SOLVERPOOL_H
