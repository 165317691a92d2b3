//===- bench/ablation_eager_lazy.cpp - Eager vs lazy assumptions ----------===//
///
/// \file
/// The Sec. 5.2 discussion, measured: the paper argues that its *eager*
/// strategy (generate every assumption, run reactive synthesis once)
/// beats a *lazy* strategy (add assumptions one at a time, re-running
/// reactive synthesis after each) because a single reactive run
/// dominates many SyGuS queries. This ablation runs both modes on every
/// benchmark and reports times and reactive-run counts.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Runner.h"

#include <cstdio>

using namespace temos;

int main() {
  std::printf("=== Ablation: eager vs lazy assumption addition "
              "(Sec. 5.2) ===\n\n");
  std::printf("%-16s | %9s %5s | %9s %5s | %s\n", "Benchmark", "eager(s)",
              "runs", "lazy(s)", "runs", "verdicts");

  double EagerTotal = 0, LazyTotal = 0;
  size_t Agreements = 0, Count = 0;
  int Failures = 0;
  for (const BenchmarkSpec &B : allBenchmarks()) {
    PipelineOptions Eager;
    BenchmarkRun EagerRun = runBenchmark(B, Eager);

    PipelineOptions Lazy;
    Lazy.Eager = false;
    BenchmarkRun LazyRun = runBenchmark(B, Lazy);

    double EagerTime = EagerRun.seconds();
    double LazyTime = LazyRun.seconds();
    EagerTotal += EagerTime;
    LazyTotal += LazyTime;
    bool Agree = EagerRun.Result.Status == LazyRun.Result.Status;
    Agreements += Agree;
    ++Count;
    bool EagerOk = EagerRun.Result.Status == Realizability::Realizable;
    Failures += EagerOk ? 0 : 1;

    std::printf("%-16s | %9.3f %5u | %9.3f %5u | %s\n", B.Name, EagerTime,
                EagerRun.Result.Stats.ReactiveRuns, LazyTime,
                LazyRun.Result.Stats.ReactiveRuns,
                Agree ? "agree" : "DISAGREE");
    if (!Agree && EagerOk)
      std::printf("%-16s | (lazy mode adds assumptions without the Alg. 4 "
                  "refinement loop, so specs that need refined programs -- "
                  "like CFS -- fail lazily)\n",
                  "");
  }

  std::printf("\ntotals: eager %.3fs, lazy %.3fs (lazy/eager = %.2fx)\n",
              EagerTotal, LazyTotal,
              EagerTotal > 0 ? LazyTotal / EagerTotal : 0);
  std::printf("verdict agreement: %zu/%zu\n", Agreements, Count);
  if (LazyTotal < EagerTotal)
    std::printf("note: lazy is *faster* here, inverting the paper's "
                "Sec. 5.2 expectation -- our reactive engine pays so much "
                "for extra assumptions that fewer, later-added assumptions "
                "win despite repeated synthesis runs. With Strix (nearly "
                "assumption-insensitive, one expensive run) the paper's "
                "argument holds.\n");
  return Failures == 0 ? 0 : 1;
}
