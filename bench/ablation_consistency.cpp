//===- bench/ablation_consistency.cpp - Powerset vs minimal cores ---------===//
///
/// \file
/// Sec. 4.2 enumerates the full powerset of predicate literals (O(2^n)
/// SMT queries) and adds an assumption per unsatisfiable subset. This
/// ablation compares that against minimal-core mode (supersets of known
/// cores are skipped): SMT query counts, assumption counts, and whether
/// the final realizability verdict is unaffected.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Runner.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace temos;

namespace {

/// Renders a consistency result to one comparable string.
std::string renderAssumptions(const ConsistencyResult &R) {
  std::string Out;
  for (const Formula *A : R.Assumptions)
    Out += A->str() + "\n";
  return Out;
}

/// Parallel solver-service ablation: sweep a many-predicate consistency
/// instance at NumThreads 1 vs 4, full powerset, cache off (so every
/// query does real solver work), and check the assumption sets match
/// byte for byte. On a multi-core host the 4-thread sweep must also be
/// faster. Returns false on a determinism or speedup violation.
bool runParallelAblation() {
  std::printf("\n=== Ablation: parallel consistency sweep, 1 vs 4 solver "
              "threads ===\n\n");

  // Find the bundled spec with the most predicate literals.
  const BenchmarkSpec *Largest = nullptr;
  size_t LargestPreds = 0;
  Context ScanCtx;
  for (const BenchmarkSpec &B : allBenchmarks()) {
    auto Spec = parseSpecification(B.Source, ScanCtx);
    if (!Spec)
      continue;
    Decomposition D = decompose(*Spec, ScanCtx);
    if (D.PredicateLiterals.size() > LargestPreds) {
      LargestPreds = D.PredicateLiterals.size();
      Largest = &B;
    }
  }
  if (!Largest) {
    std::printf("no parseable benchmark found\n");
    return false;
  }
  std::printf("largest bundled predicate set: %s (|P| = %zu)\n",
              Largest->Name, LargestPreds);

  // The bundled sets are small (a handful of predicates), so the timed
  // sweep uses a scaled instance instead: five disjoint inequality
  // 3-cycles (a < b < c < a), 15 predicates in all. The bounded
  // powerset has ~1900 subsets with real simplex work in each, and
  // every 3-cycle (plus its in-bound supersets) is unsatisfiable, so
  // the byte-identical comparison covers a non-trivial assumption set.
  const unsigned StressGroups = 5;
  std::string StressSource = "#LIA#\ninputs { int ";
  for (unsigned G = 0; G < StressGroups; ++G)
    for (unsigned V = 0; V < 3; ++V)
      StressSource += (G + V ? ", a" : "a") + std::to_string(G * 3 + V);
  StressSource += "; }\ncells { int m = 0; }\nalways guarantee {\n";
  for (unsigned G = 0; G < StressGroups; ++G)
    for (unsigned V = 0; V < 3; ++V)
      StressSource += "  G (a" + std::to_string(G * 3 + V) + " < a" +
                      std::to_string(G * 3 + (V + 1) % 3) + " -> [m <- a" +
                      std::to_string(G * 3 + V) + "]);\n";
  StressSource += "}\n";

  Context Ctx;
  auto Spec = parseSpecification(StressSource, Ctx);
  if (!Spec) {
    std::printf("stress spec failed to parse: %s\n",
                Spec.error().str().c_str());
    return false;
  }
  Decomposition D = decompose(*Spec, Ctx);
  std::printf("scaled instance: 5 inequality 3-cycles, |P| = %zu\n",
              D.PredicateLiterals.size());

  ConsistencyOptions Sweep;
  Sweep.MinimalCoresOnly = false;
  Sweep.MaxSubsetSize = 4;

  const int Iterations = 3;
  auto timeSweep = [&](unsigned NumThreads, std::string &AssumptionsOut,
                       size_t &QueriesOut) {
    SolverService::Config C;
    C.NumThreads = NumThreads;
    C.CacheEnabled = false;
    SolverService Svc(Spec->Th, C);
    double Best = 1e100;
    for (int It = 0; It < Iterations; ++It) {
      Timer T;
      ConsistencyResult R =
          checkConsistency(D.PredicateLiterals, Spec->Th, Ctx, Sweep, &Svc);
      Best = std::min(Best, T.seconds());
      AssumptionsOut = renderAssumptions(R);
      QueriesOut = R.SolverQueries;
    }
    return Best;
  };

  std::string SerialPsi, ParallelPsi;
  size_t SerialQ = 0, ParallelQ = 0;
  double Serial = timeSweep(1, SerialPsi, SerialQ);
  double Parallel = timeSweep(4, ParallelPsi, ParallelQ);
  double Speedup = Serial / Parallel;

  std::printf("threads=1: %8.2f ms  (%zu queries)\n", Serial * 1e3, SerialQ);
  std::printf("threads=4: %8.2f ms  (%zu queries)  speedup %.2fx\n",
              Parallel * 1e3, ParallelQ, Speedup);
  bool Identical = SerialPsi == ParallelPsi;
  std::printf("assumption sets: %s (%zu assumptions)\n",
              Identical ? "byte-identical" : "MISMATCH",
              static_cast<size_t>(
                  std::count(SerialPsi.begin(), SerialPsi.end(), '\n')));

  // Wall-clock speedup is only a pass/fail criterion when the host can
  // physically exhibit one; on a single-core machine the 4-thread sweep
  // degenerates to time-sliced serial execution plus pool overhead.
  unsigned Cores = std::thread::hardware_concurrency();
  bool SpeedupOk = true;
  if (Cores >= 2) {
    SpeedupOk = Speedup > 1.0;
    std::printf("host cores: %u -> speedup check %s\n", Cores,
                SpeedupOk ? "passed" : "FAILED");
  } else {
    std::printf("host cores: %u -> speedup not measurable, check skipped\n",
                Cores);
  }

  // Cache ablation: a second identical run on one service answers from
  // the memo table.
  SolverService::Config C;
  C.NumThreads = 1;
  SolverService Svc(Spec->Th, C);
  (void)checkConsistency(D.PredicateLiterals, Spec->Th, Ctx, Sweep, &Svc);
  size_t MissesAfterFirst = Svc.cache().misses();
  (void)checkConsistency(D.PredicateLiterals, Spec->Th, Ctx, Sweep, &Svc);
  size_t Hits = Svc.cache().hits();
  std::printf("query cache: run 1 = %zu misses, run 2 = %zu hits\n",
              MissesAfterFirst, Hits);

  return Identical && SpeedupOk && Hits > 0;
}

} // namespace

int main() {
  std::printf("=== Ablation: consistency checking, powerset vs minimal "
              "cores (Sec. 4.2) ===\n\n");
  std::printf("%-16s | %8s %8s | %8s %8s | %s\n", "Benchmark", "full-q",
              "full-psi", "min-q", "min-psi", "verdicts");

  size_t Agreements = 0, Count = 0;
  size_t FullQueries = 0, MinQueries = 0;
  for (const BenchmarkSpec &B : allBenchmarks()) {
    PipelineOptions Full;
    Full.Consistency.MinimalCoresOnly = false;
    BenchmarkRun FullRun = runBenchmark(B, Full);

    PipelineOptions Minimal;
    Minimal.Consistency.MinimalCoresOnly = true;
    BenchmarkRun MinRun = runBenchmark(B, Minimal);

    bool Agree = FullRun.Result.Status == MinRun.Result.Status;
    Agreements += Agree;
    ++Count;
    FullQueries += FullRun.Result.Stats.ConsistencyQueries;
    MinQueries += MinRun.Result.Stats.ConsistencyQueries;

    std::printf("%-16s | %8zu %8zu | %8zu %8zu | %s\n", B.Name,
                FullRun.Result.Stats.ConsistencyQueries,
                FullRun.Result.ConsistencyAssumptions.size(),
                MinRun.Result.Stats.ConsistencyQueries,
                MinRun.Result.ConsistencyAssumptions.size(),
                Agree ? "agree" : "DISAGREE");
  }

  std::printf("\ntotal SMT queries: full %zu, minimal %zu\n", FullQueries,
              MinQueries);
  std::printf("verdict agreement: %zu/%zu\n", Agreements, Count);

  bool ParallelOk = runParallelAblation();
  return (Agreements == Count && ParallelOk) ? 0 : 1;
}
