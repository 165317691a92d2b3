//===- examples/pong_game.cpp - Pong with a synthesized paddle ------------===//
///
/// \file
/// The Pong benchmark family as a runnable game: the paddle controller
/// is synthesized from the Single-Player TSL-MT specification, then
/// plays against a scripted ball. The specification's guarantees are
/// monitored on the recorded trace (never retreat while chasing; from a
/// chasing position, eventually reach the top of the court or catch up)
/// and an ASCII rendering of the rally is printed.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Runner.h"
#include "codegen/Interpreter.h"
#include "codegen/TraceChecker.h"

#include <cstdio>

using namespace temos;

int main() {
  const BenchmarkSpec *B = findBenchmark("Single-Player");
  if (!B)
    return 1;

  BenchmarkRun Run = runBenchmark(*B);
  if (Run.Result.Status != Realizability::Realizable) {
    std::fprintf(stderr, "pong synthesis failed\n");
    return 1;
  }
  std::printf("Pong paddle synthesized in %.3fs (%zu machine states)\n\n",
              Run.seconds(), Run.Result.Machine->stateCount());

  Controller C(*Run.Result.Machine, Run.Result.AB, Run.Spec);
  Trace T;

  // The ball bounces between rows 0 and 9.
  auto BallAt = [](size_t Tick) -> int64_t {
    size_t Phase = Tick % 18;
    return Phase < 9 ? static_cast<int64_t>(Phase)
                     : static_cast<int64_t>(18 - Phase);
  };

  size_t RetreatMoves = 0;
  size_t ChaseResolved = 0, ChaseStarted = 0;
  std::printf("=== Rally (b = ball, P = paddle, X = both) ===\n");
  for (size_t Tick = 0; Tick < 48; ++Tick) {
    int64_t Ball = BallAt(Tick);
    int64_t PaddleBefore = C.cell("paddle").getNumber().numerator();
    auto Outcome = C.step({{"ball", Value::integer(Ball)}});
    if (!Outcome) {
      std::fprintf(stderr, "evaluation failed at tick %zu\n", Tick);
      return 1;
    }
    T.append(Run.Result.AB, *Outcome);
    int64_t Paddle = C.cell("paddle").getNumber().numerator();

    // The spec's safety guarantee: while chasing upward, never retreat.
    if (PaddleBefore < Ball && Paddle < PaddleBefore)
      ++RetreatMoves;
    // The liveness milestone: a chase resolves by catching up or by
    // reaching the top of the court.
    if (PaddleBefore < Ball)
      ++ChaseStarted;
    if (PaddleBefore < Ball && (Paddle >= Ball || Paddle >= 9))
      ++ChaseResolved;

    if (Tick < 24) {
      char Row[12];
      for (int I = 0; I < 10; ++I)
        Row[I] = '.';
      Row[10] = 0;
      Row[Ball] = 'b';
      if (Paddle >= 0 && Paddle < 10)
        Row[Paddle] = Row[Paddle] == 'b' ? 'X' : 'P';
      std::printf("  %2zu |%s|\n", Tick, Row);
    }
  }

  // Monitor every G-wrapped guarantee on the recorded trace.
  size_t Violations = 0;
  for (const Formula *G : Run.Spec.AlwaysGuarantees)
    if (!T.noViolation(Run.Ctx->Formulas.globally(G))) {
      std::printf("VIOLATED: G %s\n", G->str().c_str());
      ++Violations;
    }

  std::printf("\nretreats while chasing: %zu; chase steps resolved: "
              "%zu/%zu; guarantee violations on trace: %zu\n",
              RetreatMoves, ChaseResolved, ChaseStarted, Violations);
  // The synthesized strategy may simply stay ahead of the ball for the
  // whole rally (no chase ever starts) -- that satisfies the spec too.
  bool Ok = RetreatMoves == 0 && Violations == 0 &&
            (ChaseStarted == 0 || ChaseResolved > 0);
  std::printf("%s\n", Ok ? "Pong case study PASSED" : "Pong case study FAILED");
  return Ok ? 0 : 1;
}
