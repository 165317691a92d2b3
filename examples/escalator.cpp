//===- examples/escalator.cpp - Smart escalator, monitored ----------------===//
///
/// \file
/// The Escalator family's "Smart" benchmark as a runnable scenario: the
/// synthesized controller drives the motor from rider requests and an
/// idle timer (five quiet steps park the escalator). A day of simulated
/// traffic is replayed -- rush hour, a quiet spell long enough to park,
/// a lone late rider -- and the recorded trace is checked against every
/// guarantee with the trace monitor.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Runner.h"
#include "codegen/Interpreter.h"
#include "codegen/TraceChecker.h"

#include <cinttypes>
#include <cstdio>

using namespace temos;

int main() {
  const BenchmarkSpec *B = findBenchmark("Smart");
  if (!B)
    return 1;

  BenchmarkRun Run = runBenchmark(*B);
  if (Run.Result.Status != Realizability::Realizable) {
    std::fprintf(stderr, "escalator synthesis failed\n");
    return 1;
  }
  std::printf("Smart escalator synthesized in %.3fs "
              "(%zu machine states, |psi| = %zu)\n\n",
              Run.seconds(), Run.Result.Machine->stateCount(),
              Run.Result.Stats.AssumptionCount);

  Controller C(*Run.Result.Machine, Run.Result.AB, Run.Spec);
  Trace T;

  // Traffic script: rush (0-9), quiet (10-24), one late rider (25),
  // quiet again (26-39).
  auto RequestAt = [](size_t Tick) {
    return Tick < 10 || Tick == 25;
  };

  size_t MotorOnDuringRequests = 0, Requests = 0;
  size_t ParkedAfterTimeout = 0, DeepIdleTicks = 0;
  std::printf("=== Day replay (tick: request -> motor, idle) ===\n");
  for (size_t Tick = 0; Tick < 40; ++Tick) {
    bool Request = RequestAt(Tick);
    // The spec's guards read the idle timer *before* the step's update.
    int64_t IdleBefore = C.cell("idle").getNumber().numerator();
    auto Outcome = C.step({{"request", Value::boolean(Request)}});
    if (!Outcome) {
      std::fprintf(stderr, "evaluation failed at tick %zu\n", Tick);
      return 1;
    }
    T.append(Run.Result.AB, *Outcome);
    int64_t Motor = C.cell("motor").getNumber().numerator();
    int64_t Idle = C.cell("idle").getNumber().numerator();

    Requests += Request;
    MotorOnDuringRequests += Request && Motor == 1;
    if (IdleBefore >= 5 && !Request) {
      ++DeepIdleTicks;
      ParkedAfterTimeout += Motor == 0;
    }
    (void)Idle;

    if (Tick < 14 || (Tick >= 24 && Tick < 30))
      std::printf("  %2zu: %-7s -> motor=%" PRId64 " idle=%" PRId64 "\n",
                  Tick, Request ? "request" : "quiet", Motor, Idle);
  }

  // Monitor the specification on the recorded trace.
  size_t Violations = 0;
  for (const Formula *G : Run.Spec.AlwaysGuarantees)
    if (!T.noViolation(Run.Ctx->Formulas.globally(G))) {
      std::printf("VIOLATED: G %s\n", G->str().c_str());
      ++Violations;
    }
  for (const Formula *G : Run.Spec.Guarantees)
    if (!T.noViolation(G)) {
      std::printf("VIOLATED: %s\n", G->str().c_str());
      ++Violations;
    }

  std::printf("\nmotor on for %zu/%zu request ticks; parked on %zu/%zu "
              "deep-idle ticks; trace violations: %zu\n",
              MotorOnDuringRequests, Requests, ParkedAfterTimeout,
              DeepIdleTicks, Violations);
  bool Ok = MotorOnDuringRequests == Requests &&
            ParkedAfterTimeout == DeepIdleTicks && DeepIdleTicks > 0 &&
            Violations == 0;
  std::printf("%s\n",
              Ok ? "Escalator case study PASSED" : "Escalator case study FAILED");
  return Ok ? 0 : 1;
}
