//===- support/Deadline.h - Deadlines + failure taxonomy -------*- C++ -*-===//
///
/// \file
/// A shared cancellation token with an optional monotonic deadline, and
/// the pipeline-wide failure taxonomy. The paper's tool inherits
/// per-query wall-clock timeouts from the external solvers it shells out
/// to (CVC4, Strix); our from-scratch substrates have no such safety
/// net, so every long-running loop (simplex pivoting, branch-and-bound,
/// SyGuS enumeration, tableau expansion, game exploration) polls a
/// Deadline cooperatively and unwinds with DeadlineExpired when the
/// budget is gone. A default-constructed Deadline never expires and its
/// poll is a single null-pointer test, so the machinery is free -- and
/// observationally invisible -- when no budget is configured.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_SUPPORT_DEADLINE_H
#define TEMOS_SUPPORT_DEADLINE_H

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <string>

namespace temos {

/// Thrown by Deadline::check() when the budget is exhausted. Pipeline
/// phases catch it at the same level they catch RationalOverflow and
/// degrade to an Unknown/partial result instead of aborting.
class DeadlineExpired : public std::exception {
public:
  const char *what() const noexcept override {
    return "temos: deadline expired";
  }
};

/// Shared cancellation token + monotonic wall-clock deadline.
///
/// Copies share one underlying state: cancelling any copy (or letting
/// the clock pass the due time) trips every copy, so a single token can
/// be handed to solver clones across pool workers. Default-constructed
/// tokens carry no state at all and never expire.
class Deadline {
public:
  /// A deadline that never expires (the no-budget fast path).
  Deadline() = default;

  /// A deadline \p Seconds from now on the monotonic clock.
  /// Non-positive (and NaN) budgets produce an already-expired deadline.
  /// Budgets past half the clock's remaining range (centuries; also
  /// +inf) saturate to a deadline that never expires, so the cast to
  /// the clock's integer ticks can never overflow.
  static Deadline after(double Seconds) {
    Deadline D;
    D.S = std::make_shared<State>();
    const Clock::time_point Now = Clock::now();
    const double Room =
        std::chrono::duration<double>(Clock::time_point::max() - Now).count();
    if (!(Seconds > 0))
      D.S->Due = Now;
    else if (Seconds >= Room / 2)
      D.S->Due = Clock::time_point::max();
    else
      D.S->Due = Now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(Seconds));
    return D;
  }

  /// The earlier of two deadlines; an armed deadline always beats an
  /// unarmed one. Used to combine the global budget with a phase budget.
  static Deadline earlier(const Deadline &A, const Deadline &B) {
    if (!A.S)
      return B;
    if (!B.S)
      return A;
    return A.S->Due <= B.S->Due ? A : B;
  }

  /// Polls the token. Cheap: a null test when unarmed, one relaxed
  /// atomic load when already tripped, one clock read otherwise.
  bool expired() const {
    if (!S)
      return false;
    if (S->Cancelled.load(std::memory_order_relaxed))
      return true;
    if (Clock::now() < S->Due)
      return false;
    S->Cancelled.store(true, std::memory_order_relaxed);
    return true;
  }

  /// Polls and throws DeadlineExpired when the budget is gone.
  void check() const {
    if (expired())
      throw DeadlineExpired();
  }

  /// Trips the token immediately (cooperative cancellation without a
  /// clock). No-op on an unarmed deadline.
  void cancel() const {
    if (S)
      S->Cancelled.store(true, std::memory_order_relaxed);
  }

private:
  using Clock = std::chrono::steady_clock;
  struct State {
    Clock::time_point Due;
    std::atomic<bool> Cancelled{false};
  };
  std::shared_ptr<State> S;
};

/// What went wrong, structurally. Carried in PipelineStats, surfaced in
/// --emit=summary, the temos-bench-v1 JSON record, and the CLI exit
/// code.
enum class FailureKind {
  Timeout,         ///< a time budget expired (Deadline tripped)
  StateBudget,     ///< the game-state / tableau budget was exhausted
  Overflow,        ///< RationalOverflow: 128->64-bit narrowing lost bits
  WorkerException, ///< an exception escaped a pooled task
  Internal,        ///< anything else (a bug; never expected)
};

inline const char *failureKindName(FailureKind K) {
  switch (K) {
  case FailureKind::Timeout:
    return "timeout";
  case FailureKind::StateBudget:
    return "state-budget";
  case FailureKind::Overflow:
    return "overflow";
  case FailureKind::WorkerException:
    return "worker-exception";
  case FailureKind::Internal:
    return "internal";
  }
  return "internal";
}

/// One recorded failure: which phase degraded, why, and any detail
/// (e.g. how many consistency obligations went unchecked).
struct FailureRecord {
  FailureKind Kind = FailureKind::Internal;
  std::string Phase;  ///< "consistency", "sygus", "reactive", "pipeline"
  std::string Detail; ///< free-form, human-readable

  /// The one-line rendering every report uses: "<kind> [<phase>] <detail>".
  std::string str() const {
    return std::string(failureKindName(Kind)) + " [" + Phase + "] " + Detail;
  }
};

} // namespace temos

#endif // TEMOS_SUPPORT_DEADLINE_H
