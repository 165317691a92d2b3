//===- perfbench/src/SelfTest.cpp - The benchmark's own tests --------------===//

#include "SelfTest.h"
#include "Workloads.h"

#include "benchmarks/BenchJson.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Checks = 0, Failures = 0;

void expect(bool Ok, const std::string &What) {
  ++Checks;
  if (!Ok) {
    ++Failures;
    std::printf("FAIL: %s\n", What.c_str());
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

bool nearAll(const std::array<double, 3> &Q, double A, double B, double C) {
  return near(Q[0], A) && near(Q[1], B) && near(Q[2], C);
}

void testStatistics() {
  expect(near(median({3, 1, 2}), 2), "median of an odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of an even count");
  // Reference values: Python's statistics.quantiles(..., n=4).
  expect(nearAll(quartiles({1, 2}), 0.75, 1.5, 2.25), "quartiles of [1, 2]");
  expect(nearAll(quartiles({5, 1, 4, 2, 3}), 1.5, 3.0, 4.5),
         "quartiles of [5, 1, 4, 2, 3]");
  expect(nearAll(quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 2.75, 5.5, 8.25),
         "quartiles of 1..10");
  expect(nearAll(quartiles({0.9, 1.1, 1.0, 1.3, 0.95, 1.02, 1.2}), 0.95, 1.02,
                 1.2),
         "quartiles of seven timings");
  // Four slices at twice their nominal time: the host ran at half speed.
  expect(near(atNominalSpeed(1.0, 8 * NominalSliceSeconds, 4), 0.5),
         "a time is scaled to nominal host speed");
  expect(near(atNominalSpeed(3.0, 4 * NominalSliceSeconds, 4), 3.0),
         "a time at nominal speed is unchanged");
}

void testNames() {
  expect(sanitizeName("Round Robin") == "Round_Robin", "sanitize a space");
  expect(sanitizeName("Multi-effect") == "Multi-effect", "sanitize keeps '-'");
  expect(sanitizeName("a.b/c") == "a_b_c", "sanitize '.' and '/'");
  for (const temos::BenchmarkSpec &B : temos::allBenchmarks())
    expect("BENCH_" + sanitizeName(B.Name) + ".json" ==
               temos::benchJsonFileName(B.Name),
           std::string("sanitized name of ") + B.Name +
               " matches its bench-JSON file name");
  expect(goldenSlug("Round Robin") == "round_robin", "slug of Round Robin");
  expect(goldenSlug("Single-Player") == "single_player", "slug of Single-Player");
  expect(goldenSlug("CFS") == "cfs", "slug of CFS");
}

void testGoldenParsing() {
  std::string Err;
  auto G = parseGoldenSummary("CFS: realizable\n"
                              "  |phi|=36 |P|=4 |F|=5 |psi|=3\n"
                              "  machine states:   79\n"
                              "  JavaScript LoC:   6879\n",
                              Err);
  expect(G && G->Verdict == "realizable" && G->MachineStates == 79 &&
             G->JsLoc == 6879,
         "parse a summary golden");
  auto NoLoc = parseGoldenSummary("X: realizable\n  machine states: 2\n", Err);
  expect(!NoLoc && Err.find("LoC") != std::string::npos,
         "a golden without a LoC line is rejected");
  auto Unreal = parseGoldenSummary("X: unrealizable\n  machine states: 0\n"
                                   "  JavaScript LoC: 0\n",
                                   Err);
  expect(Unreal && Unreal->Verdict == "unrealizable",
         "parse an unrealizable verdict");
}

void testSmoke(const std::string &GoldenDir) {
  const Workload &W = *findWorkload("smoke");
  std::vector<RowSpec> Rows;
  std::string Err;
  if (!loadRows(W, GoldenDir, Rows, Err)) {
    expect(false, "load the smoke rows' goldens: " + Err);
    return;
  }
  PassResult P = runPass(Rows, {}, 7, 0);
  expect(P.Attempted == Rows.size() && P.Failed == 0,
         "every smoke operation passes its check");
  expect(P.WallSeconds > 0 && P.JsLoc > 0, "a smoke pass is timed");
  expect(P.Slices == Rows.size() && P.Reference.Wall > 0,
         "a reference slice follows every operation");

  SpanLog Log;
  Counters Sum;
  PassResult T = runPass(Rows, {}, 7, 1, &Log, &Sum);
  expect(T.Failed == 0, "every traced smoke operation passes its check");
  auto M = layerMetrics(Log, 0, Sum);
  double Replayed = M["core.decompose_s"] + M["core.consistency_s"] +
                    M["sygus.generate_s"] + M["tsl2ltl.alphabet_s"] +
                    M["automata.nba_s"] + M["game.solve_s"];
  expect(near(Replayed + M["core.unattributed_s"], M["core.pipeline_s"]),
         "replayed layers plus unattributed add up to core.pipeline");
  double PerRow = 0;
  for (const std::string &Row : W.Rows)
    PerRow += M["spec." + sanitizeName(Row) + ".pipeline_s"];
  expect(near(PerRow, M["core.pipeline_s"]),
         "per-row pipeline times add up to core.pipeline");
  expect(M["game.machine_states"] > 0 && M["tsl2ltl.output_letters"] > 0,
         "traced counters are read");

  // A wrong expectation must count as a failed operation.
  std::fprintf(stderr, "(the next two FAILED lines are expected)\n");
  std::vector<RowSpec> WrongLoc = Rows;
  WrongLoc[0].Expected.JsLoc += 1;
  PassResult BadLoc = runPass(WrongLoc, {}, 7, 2);
  expect(BadLoc.Failed == 1, "a wrong expected LoC is a failed operation");
  std::vector<RowSpec> WrongStates = Rows;
  WrongStates[1].Expected.MachineStates += 1;
  PassResult BadStates = runPass(WrongStates, {}, 7, 3);
  expect(BadStates.Failed == 1,
         "a wrong expected machine-state count is a failed operation");
}

} // namespace

int perfbench::runSelfTest(const std::string &GoldenDir) {
  testStatistics();
  testNames();
  testGoldenParsing();
  testSmoke(GoldenDir);
  std::printf("self-test: %d of %d checks passed\n", Checks - Failures, Checks);
  return Failures == 0 ? 0 : 1;
}
