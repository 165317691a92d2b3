//===- tests/support/SolverPoolTest.cpp - Pool + deadline unit tests ------===//
///
/// \file
/// Regression tests for the two support-layer robustness guarantees the
/// pipeline leans on: a worker exception must never reach
/// std::terminate (it is captured and rethrown deterministically,
/// smallest submission ticket first, at wait()), and the Deadline token
/// must behave identically across copies, combinations, and the unarmed
/// fast path.
///
//===----------------------------------------------------------------------===//

#include "support/Deadline.h"
#include "support/SolverPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace temos;

namespace {

//===----------------------------------------------------------------------===//
// SolverPool exception safety
//===----------------------------------------------------------------------===//

/// Submits \p N tasks of which those with index in \p ThrowAt throw, and
/// returns the message of the exception wait() surfaces ("" when none).
/// Tasks finish in scrambled order on purpose (later tickets sleep
/// less), so a nondeterministic "first to fail wins" implementation
/// would be caught.
std::string surfacedError(unsigned Width, unsigned N,
                          std::vector<unsigned> ThrowAt,
                          std::atomic<unsigned> *Ran = nullptr) {
  SolverPool Pool(Width);
  // The try wraps submit() too: an inline pool (width 1) runs tasks in
  // submission order and throws out of submit() itself -- that natural
  // propagation is the reference behavior the pooled capture mimics.
  try {
    for (unsigned I = 0; I < N; ++I) {
      bool Throws =
          std::find(ThrowAt.begin(), ThrowAt.end(), I) != ThrowAt.end();
      Pool.submit([I, N, Throws, Ran] {
        std::this_thread::sleep_for(std::chrono::microseconds((N - I) * 100));
        if (Ran)
          Ran->fetch_add(1);
        if (Throws)
          throw std::runtime_error("task " + std::to_string(I));
      });
    }
    Pool.wait();
  } catch (const std::runtime_error &E) {
    return E.what();
  }
  return "";
}

TEST(SolverPool, WorkerExceptionDoesNotTerminate) {
  // Before the capture fix this reached std::terminate inside the
  // worker thread and took the whole test binary down.
  EXPECT_EQ(surfacedError(4, 8, {5}), "task 5");
}

TEST(SolverPool, SmallestTicketWinsAcrossWidths) {
  // Multiple failures: every pool width must surface the same one --
  // the earliest submitted -- exactly like an inline pool would.
  for (unsigned Width : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(surfacedError(Width, 16, {11, 3, 7}), "task 3")
        << "width " << Width;
  }
}

TEST(SolverPool, RemainingTasksStillRunAfterThrow) {
  std::atomic<unsigned> Ran{0};
  EXPECT_EQ(surfacedError(4, 12, {0}, &Ran), "task 0");
  // The throwing task still counts itself before throwing; every other
  // task must have run to completion rather than being abandoned.
  EXPECT_EQ(Ran.load(), 12u);
}

TEST(SolverPool, PoolIsReusableAfterRethrow) {
  SolverPool Pool(2);
  Pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Pool.wait(), std::runtime_error);

  // A captured-and-rethrown exception must not poison the pool.
  std::atomic<unsigned> Ran{0};
  for (unsigned I = 0; I < 8; ++I)
    Pool.submit([&Ran] { Ran.fetch_add(1); });
  EXPECT_NO_THROW(Pool.wait());
  EXPECT_EQ(Ran.load(), 8u);
}

TEST(SolverPool, InlinePoolPropagatesNaturally) {
  // Width 1 spawns no workers; the throw propagates out of submit()
  // itself, which is the reference behavior the pooled rethrow mimics.
  SolverPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 0u);
  EXPECT_THROW(Pool.submit([] { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

//===----------------------------------------------------------------------===//
// Deadline token
//===----------------------------------------------------------------------===//

TEST(Deadline, UnarmedNeverExpires) {
  Deadline D;
  EXPECT_FALSE(D.expired());
  EXPECT_NO_THROW(D.check());
  D.cancel(); // no-op, not a crash
  EXPECT_FALSE(D.expired());
}

TEST(Deadline, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::after(0).expired());
  EXPECT_TRUE(Deadline::after(-1).expired());
  EXPECT_TRUE(Deadline::after(-std::numeric_limits<double>::infinity())
                  .expired());
  EXPECT_THROW(Deadline::after(0).check(), DeadlineExpired);
}

TEST(Deadline, BudgetPastTheClockRangeNeverExpires) {
  // Seconds past the clock's tick range used to overflow the cast to
  // ticks and land in the past. They saturate instead, and cancel()
  // still trips them.
  for (double Seconds :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    Deadline D = Deadline::after(Seconds);
    EXPECT_FALSE(D.expired()) << Seconds;
    D.cancel();
    EXPECT_TRUE(D.expired()) << Seconds;
  }
}

TEST(Deadline, CopiesShareOneState) {
  Deadline A = Deadline::after(3600);
  Deadline B = A;
  EXPECT_FALSE(B.expired());
  A.cancel();
  EXPECT_TRUE(B.expired());
  EXPECT_THROW(B.check(), DeadlineExpired);
}

TEST(Deadline, EarlierPrefersArmedAndSooner) {
  Deadline Unarmed;
  Deadline Long = Deadline::after(3600);
  Deadline Short = Deadline::after(0.001);

  // Cancelling a combination of two unarmed tokens is a no-op; a
  // combination with an armed token is that token.
  Deadline Neither = Deadline::earlier(Unarmed, Unarmed);
  Neither.cancel();
  EXPECT_FALSE(Neither.expired());
  for (bool ArmedFirst : {false, true}) {
    Deadline Armed = Deadline::after(3600);
    Deadline Either = ArmedFirst ? Deadline::earlier(Armed, Unarmed)
                                 : Deadline::earlier(Unarmed, Armed);
    Either.cancel();
    EXPECT_TRUE(Armed.expired()) << ArmedFirst;
  }

  // The combined token shares state with the sooner input: cancelling
  // the short one trips the combination.
  Deadline Combined = Deadline::earlier(Long, Short);
  Short.cancel();
  EXPECT_TRUE(Combined.expired());
  EXPECT_FALSE(Long.expired());
}

TEST(Deadline, ClockExpiryTripsEveryCopy) {
  Deadline A = Deadline::after(0.01);
  Deadline B = A;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(A.expired());
  EXPECT_TRUE(B.expired());
}

TEST(Deadline, CrossThreadCancellationIsSeen) {
  Deadline D = Deadline::after(3600);
  std::thread Canceller([D] { D.cancel(); });
  Canceller.join();
  EXPECT_TRUE(D.expired());
}

} // namespace
