//===- examples/cfs_scheduler.cpp - The Sec. 5.4 case study ---------------===//
///
/// \file
/// The Linux Completely Fair Scheduler case study (Sec. 2 and 5.4):
/// synthesize the CFS controller from the Fig. 2 specification and run
/// it against a simulated task workload (standing in for the kernel's
/// enqueue_task/dequeue_task/task_tick hooks). The key CFS property is
/// checked empirically: the task with the lower virtual runtime is
/// always preferred, and with both tasks enqueued neither starves.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Runner.h"
#include "codegen/CodeEmitter.h"
#include "codegen/Interpreter.h"

#include <cstdio>

using namespace temos;

int main() {
  const BenchmarkSpec *B = findBenchmark("CFS");
  if (!B)
    return 1;
  std::printf("=== CFS specification (Fig. 2) ===\n%s\n", B->Source);

  BenchmarkRun Run = runBenchmark(*B);
  if (Run.Result.Status != Realizability::Realizable) {
    std::fprintf(stderr, "CFS synthesis failed\n");
    return 1;
  }
  std::printf("synthesized in %.3fs (|psi| = %zu, %zu machine states, "
              "%zu LoC of generated code)\n\n",
              Run.seconds(), Run.Result.Stats.AssumptionCount,
              Run.Result.Machine->stateCount(), Run.SynthesizedLoc);

  Controller C(*Run.Result.Machine, Run.Result.AB, Run.Spec);

  // Workload: both tasks enqueued at tick 0; task1 dequeued during
  // [40, 50); re-enqueued afterwards.
  auto Inputs = [&](size_t Tick) {
    Assignment In;
    In["task1"] = Value::symbol("T1");
    In["task2"] = Value::symbol("T2");
    bool Deq1Window = Tick >= 40 && Tick < 50;
    In["enq1"] = Value::boolean(Tick == 0 || Tick == 50);
    In["enq2"] = Value::boolean(Tick == 0);
    In["deq1"] = Value::boolean(Tick == 40);
    In["deq2"] = Value::boolean(false);
    (void)Deq1Window;
    return In;
  };

  size_t ScheduledT1 = 0, ScheduledT2 = 0, Idle = 0;
  size_t T1WhileDequeued = 0;
  size_t WrongPick = 0;
  std::printf("=== Trace (first 12 ticks) ===\n");
  for (size_t Tick = 0; Tick < 200; ++Tick) {
    Rational Vr1 = C.cell("vr1").getNumber();
    Rational Vr2 = C.cell("vr2").getNumber();
    auto Outcome = C.step(Inputs(Tick));
    if (!Outcome) {
      std::fprintf(stderr, "evaluation failed at tick %zu\n", Tick);
      return 1;
    }
    const Value &Next = C.cell("next");
    bool PickedT1 = Next == Value::symbol("T1");
    bool PickedT2 = Next == Value::symbol("T2");
    ScheduledT1 += PickedT1;
    ScheduledT2 += PickedT2;
    Idle += !PickedT1 && !PickedT2;

    // Fairness invariant (Fig. 2's last two formulas): never schedule
    // the task with the strictly larger vruntime.
    if ((PickedT2 && Vr1 < Vr2) || (PickedT1 && Vr2 < Vr1))
      ++WrongPick;
    // Dequeue window: task1 must not be scheduled in [40, 50).
    if (PickedT1 && Tick >= 40 && Tick < 50)
      ++T1WhileDequeued;

    if (Tick < 12)
      std::printf("  tick %2zu: next=%-4s vr1=%-4s vr2=%-4s\n", Tick,
                  Next.str().c_str(), C.cell("vr1").str().c_str(),
                  C.cell("vr2").str().c_str());
  }

  std::printf("\n=== 200-tick summary ===\n");
  std::printf("  task1 scheduled: %zu\n", ScheduledT1);
  std::printf("  task2 scheduled: %zu\n", ScheduledT2);
  std::printf("  idle:            %zu\n", Idle);
  std::printf("  fairness violations (picked larger vruntime): %zu\n",
              WrongPick);
  std::printf("  task1 runs while dequeued: %zu\n", T1WhileDequeued);
  std::printf("  final vruntimes: vr1=%s vr2=%s\n",
              C.cell("vr1").str().c_str(), C.cell("vr2").str().c_str());

  bool Ok = WrongPick == 0 && T1WhileDequeued == 0 && ScheduledT1 > 10 &&
            ScheduledT2 > 10;
  std::printf("\n%s\n", Ok ? "CFS case study PASSED"
                           : "CFS case study FAILED");

  // The kernel integration artifact: C++ code in the style of the
  // paper's sched_class drop-in.
  std::string Cpp = emitCpp(*Run.Result.Machine, Run.Result.AB, Run.Spec);
  std::printf("\nGenerated C++ controller: %zu LoC "
              "(cf. the paper's cfs.c kernel patch)\n",
              countLines(Cpp));
  return Ok ? 0 : 1;
}
