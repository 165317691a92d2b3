//===- perfbench/src/main.cpp - The temos benchmark ------------------------===//
///
/// \file
/// Runs one workload for a fixed time and prints its metrics as the last
/// line of standard output:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--golden-dir <dir>] [--trace-file <path>]
///   perfbench --self-test [--golden-dir <dir>]
///
/// --trace 0 reports the end-to-end metrics (wall_s, cpu_s, setup_s,
/// peak_rss_mb, js_loc); --trace 1 runs the traced passes and reports the
/// per-layer metrics, writing the spans to --trace-file as Chrome
/// trace-event JSON. See README.md for what each metric means.
///
//===----------------------------------------------------------------------===//

#include "SelfTest.h"
#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace perfbench;

namespace {

/// Set-ups timed back to back as one sample before each pass of a cold
/// workload (one set-up takes about a millisecond, so a sample takes
/// about a tenth of a second and timer or scheduler jitter cannot decide
/// it), and warm-workload epochs (each a set-up with its cold pass, then
/// warm passes).
constexpr int SetupsPerSample = 128;
/// Reference slices run after each cold set-up sample to scale it.
constexpr int SetupSlices = 8;
constexpr int WarmEpochs = 2;
/// Fewest timed passes a cold-workload run makes, however long they take.
constexpr size_t MinPasses = 3;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string GoldenDir = "tests/golden";
  std::string TraceFile;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "missing value for %s\n", Flag.c_str());
      return false;
    }
    std::string V = Argv[++I];
    try {
      if (Flag == "--workload")
        A.Workload = V;
      else if (Flag == "--seed")
        A.Seed = std::stoull(V);
      else if (Flag == "--seconds")
        A.Seconds = std::stod(V);
      else if (Flag == "--trace")
        A.Trace = V != "0";
      else if (Flag == "--golden-dir")
        A.GoldenDir = V;
      else if (Flag == "--trace-file")
        A.TraceFile = V;
      else {
        std::fprintf(stderr, "unknown flag %s\n", Flag.c_str());
        return false;
      }
    } catch (const std::exception &) {
      std::fprintf(stderr, "bad value '%s' for %s\n", V.c_str(), Flag.c_str());
      return false;
    }
  }
  return A.SelfTest || !A.Workload.empty();
}

struct Metric {
  std::string Name;
  std::string Unit;
  double Value;
};

void printResult(size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted) +
         ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

/// Accumulates pass totals over a run: each pass's times as measured,
/// and scaled to nominal host speed by the reference slices run in the
/// same pass.
struct RunTotals {
  std::vector<double> Wall, Cpu, Setup, RawWall, RawSetup, Slice;
  size_t JsLoc = 0, Attempted = 0, Failed = 0;

  void add(const PassResult &P, bool Timed) {
    Attempted += P.Attempted;
    Failed += P.Failed;
    if (!Timed)
      return;
    RawWall.push_back(P.WallSeconds);
    Wall.push_back(atNominalSpeed(P.WallSeconds, P.Reference.Wall, P.Slices));
    Cpu.push_back(atNominalSpeed(P.CpuSeconds, P.Reference.Cpu, P.Slices));
    Slice.push_back(P.Reference.Wall / double(P.Slices));
    JsLoc = P.JsLoc;
  }

  void addSetup(double Seconds, double SliceSeconds, size_t Slices) {
    RawSetup.push_back(Seconds);
    Setup.push_back(atNominalSpeed(Seconds, SliceSeconds, Slices));
  }
};

void reportSpread(const char *What, const std::vector<double> &V) {
  if (V.size() < 2)
    return;
  auto Q = quartiles(V);
  std::fprintf(stderr, "%s: %zu samples, median %.6g, quartiles %.6g..%.6g\n",
               What, V.size(), median(V), Q[0], Q[2]);
}

/// The untraced run: set-ups, then timed passes until the time is up.
int runEndToEnd(const Workload &W, const Args &A) {
  RunTotals T;
  std::vector<RowSpec> Rows;
  std::vector<std::unique_ptr<RowState>> States;
  std::string Err;
  auto SetUp = [&] {
    if (loadRows(W, A.GoldenDir, Rows, Err) && parseRows(Rows, States, Err))
      return true;
    std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
    return false;
  };
  const double Start = wallNow();
  uint64_t Pass = 0;
  if (!W.Warm) {
    // Set-up: read the goldens and parse every row. One sample before
    // each pass, so the samples spread over the whole run; a sample is
    // the time per set-up of a batch of them.
    const double Measure = wallNow();
    while (T.Wall.size() < MinPasses || wallNow() - Measure < A.Seconds) {
      const double T0 = wallNow();
      for (int I = 0; I < SetupsPerSample; ++I)
        if (!SetUp())
          return 1;
      const double Seconds = (wallNow() - T0) / SetupsPerSample;
      double SliceSeconds = 0;
      for (int I = 0; I < SetupSlices; ++I)
        SliceSeconds += runReferenceSlice().Wall;
      T.addSetup(Seconds, SliceSeconds, SetupSlices);
      States.clear();
      T.add(runPass(Rows, States, A.Seed, Pass++), true);
    }
  } else {
    // Each epoch sets up afresh: goldens, parse, and the cold pass that
    // fills the kept synthesizers' caches. Then warm passes.
    for (int E = 0; E < WarmEpochs; ++E) {
      const double T0 = wallNow();
      if (!SetUp())
        return 1;
      PassResult Cold = runPass(Rows, States, A.Seed, Pass++);
      T.add(Cold, false);
      // The cold pass's reference slices are not set-up work.
      T.addSetup(wallNow() - T0 - Cold.Reference.Wall, Cold.Reference.Wall,
                 Cold.Slices);
      const double Measure = wallNow();
      size_t Warm = 0;
      while (Warm == 0 || wallNow() - Measure < A.Seconds / WarmEpochs) {
        T.add(runPass(Rows, States, A.Seed, Pass++), true);
        ++Warm;
      }
    }
  }
  std::fprintf(stderr, "%s: %llu passes in %.1f s\n", W.Name,
               (unsigned long long)Pass, wallNow() - Start);
  reportSpread("wall_s", T.Wall);
  reportSpread("cpu_s", T.Cpu);
  reportSpread("setup_s", T.Setup);
  reportSpread("wall_s as measured", T.RawWall);
  reportSpread("setup_s as measured", T.RawSetup);
  reportSpread("reference slice", T.Slice);
  printResult(T.Attempted, T.Failed,
              {{"wall_s", "s", median(T.Wall)},
               {"cpu_s", "s", median(T.Cpu)},
               {"setup_s", "s", median(T.Setup)},
               {"peak_rss_mb", "MB", peakRssMb()},
               {"js_loc", "lines", double(T.JsLoc)}});
  return 0;
}

/// The per-layer metrics, with their units, in report order.
std::vector<std::pair<std::string, std::string>> layerMetricDefs() {
  std::vector<std::pair<std::string, std::string>> Defs = {
      {"logic.parse_s", "s"},
      {"core.pipeline_s", "s"},
      {"core.decompose_s", "s"},
      {"core.obligations", "count"},
      {"core.consistency_s", "s"},
      {"core.consistency_queries", "count"},
      {"core.refinements", "count"},
      {"core.reactive_runs", "count"},
      {"core.unattributed_s", "s"},
      {"theory.smt_cache_hits", "count"},
      {"theory.smt_cache_misses", "count"},
      {"sygus.generate_s", "s"},
      {"sygus.assumptions", "count"},
      {"tsl2ltl.alphabet_s", "s"},
      {"tsl2ltl.input_letters", "count"},
      {"tsl2ltl.output_letters", "count"},
      {"automata.nba_s", "s"},
      {"automata.generalized_states", "count"},
      {"automata.nba_states", "count"},
      {"automata.nba_transitions", "count"},
      {"automata.expansion_hits", "count"},
      {"automata.expansion_misses", "count"},
      {"game.solve_s", "s"},
      {"game.states", "count"},
      {"game.bound", "count"},
      {"game.nba_cache_hits", "count"},
      {"game.arena_states_reused", "count"},
      {"game.machine_states", "count"},
      {"game.cpu_per_wall", "ratio"},
      {"codegen.emit_s", "s"},
      {"codegen.check_s", "s"},
      {"trace.overhead_s", "s"},
      {"host.ref_slice_s", "s"},
  };
  for (const std::string &Row : timedRows())
    Defs.push_back({"spec." + sanitizeName(Row) + ".pipeline_s", "s"});
  return Defs;
}

/// The traced run: (warm workload: one set-up with its cold pass, then)
/// traced passes until the time is up. The per-layer metrics are those
/// of the median pass by core.pipeline_s, so they add up as they did
/// within that pass.
int runTraced(const Workload &W, const Args &A) {
  std::vector<RowSpec> Rows;
  std::vector<std::unique_ptr<RowState>> States;
  std::string Err;
  if (!loadRows(W, A.GoldenDir, Rows, Err) ||
      (W.Warm && !parseRows(Rows, States, Err))) {
    std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
    return 1;
  }
  size_t Attempted = 0, Failed = 0;
  uint64_t Pass = 0;
  if (W.Warm) {
    PassResult Cold = runPass(Rows, States, A.Seed, Pass++);
    Attempted += Cold.Attempted;
    Failed += Cold.Failed;
  }
  SpanLog Log;
  std::vector<std::map<std::string, double>> PerPass;
  const double Measure = wallNow();
  while (PerPass.empty() || wallNow() - Measure < A.Seconds) {
    const size_t From = Log.spans().size();
    Counters Sum;
    PassResult P = runPass(Rows, States, A.Seed, Pass++, &Log, &Sum);
    Attempted += P.Attempted;
    Failed += P.Failed;
    PerPass.push_back(layerMetrics(Log, From, Sum));
    PerPass.back()["host.ref_slice_s"] = P.Reference.Wall / double(P.Slices);
  }
  if (!A.TraceFile.empty() && !Log.writeChromeTrace(A.TraceFile))
    std::fprintf(stderr, "cannot write %s\n", A.TraceFile.c_str());
  std::fprintf(stderr, "%s: %zu traced passes\n", W.Name, PerPass.size());

  std::sort(PerPass.begin(), PerPass.end(), [](auto &L, auto &R) {
    return L["core.pipeline_s"] < R["core.pipeline_s"];
  });
  std::map<std::string, double> &Median = PerPass[(PerPass.size() - 1) / 2];
  std::vector<Metric> Metrics;
  for (const auto &[Name, Unit] : layerMetricDefs())
    Metrics.push_back({Name, Unit, Median[Name]}); // 0 for rows not run
  printResult(Attempted, Failed, Metrics);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--golden-dir <dir>] [--trace-file <path>]\n"
                 "       perfbench --self-test [--golden-dir <dir>]\n");
    return 2;
  }
  if (A.SelfTest)
    return runSelfTest(A.GoldenDir);
  const Workload *W = findWorkload(A.Workload);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  return A.Trace ? runTraced(*W, A) : runEndToEnd(*W, A);
}
