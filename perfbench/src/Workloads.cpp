//===- perfbench/src/Workloads.cpp - Workloads and their passes ------------===//

#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>

using namespace perfbench;

namespace {

// Load Balancer (~17 s per synthesis) and Multi-effect (~77 s) are left
// out: a run must repeat its passes many times within a few tens of
// seconds to be steady on a noisy host (see README.md).
const std::vector<std::string> GameRows = {"Intertwined", "Vibrato",
                                           "Modulation", "Round Robin",
                                           "Preemptive"};
const std::vector<std::string> TableauRows = {
    "Automatic", "Single-Player", "Two-Player",    "Bouncing",
    "Simple",    "Counting",      "Bidirectional", "Smart"};

std::vector<std::string> coldRows() {
  std::vector<std::string> Rows = GameRows;
  Rows.insert(Rows.end(), TableauRows.begin(), TableauRows.end());
  return Rows;
}

std::vector<std::string> warmRows() {
  std::vector<std::string> Rows = coldRows();
  Rows.push_back("CFS");
  return Rows;
}

// The game rows and the tableau rows share one cold workload: as two
// workloads of their own, each run would be too short to be steady
// (README.md).
const std::vector<Workload> Workloads = {
    {"cold", false, coldRows()},
    {"warm-rerun", true, warmRows()},
    {"smoke", false, {"Simple", "Counting", "Bidirectional", "Smart"}},
};

/// A seed for one (run seed, pass, row) triple (splitmix64 finalizer).
uint64_t mix(uint64_t Seed, uint64_t Pass, uint64_t Row) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ULL + Pass * 0xBF58476D1CE4E5B9ULL +
               Row * 0x94D049BB133111EBULL + 1;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

} // namespace

const Workload *perfbench::findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

std::vector<std::string> perfbench::timedRows() {
  std::vector<std::string> Rows;
  for (const temos::BenchmarkSpec &B : temos::allBenchmarks())
    for (const Workload &W : Workloads)
      if (std::count(W.Rows.begin(), W.Rows.end(), B.Name) &&
          !std::count(Rows.begin(), Rows.end(), B.Name))
        Rows.push_back(B.Name);
  return Rows;
}

bool perfbench::loadRows(const Workload &W, const std::string &GoldenDir,
                         std::vector<RowSpec> &Rows, std::string &Err) {
  Rows.clear();
  for (const std::string &Name : W.Rows) {
    RowSpec R;
    R.Bench = temos::findBenchmark(Name);
    if (!R.Bench) {
      Err = "no bundled benchmark named '" + Name + "'";
      return false;
    }
    std::string Path = GoldenDir + "/" + goldenSlug(Name) + ".summary.golden";
    std::ifstream In(Path);
    if (!In) {
      Err = "cannot read " + Path;
      return false;
    }
    std::stringstream Text;
    Text << In.rdbuf();
    std::string Why;
    auto G = parseGoldenSummary(Text.str(), Why);
    if (!G) {
      Err = Path + ": " + Why;
      return false;
    }
    R.Expected = *G;
    Rows.push_back(std::move(R));
  }
  return true;
}

bool perfbench::parseRows(const std::vector<RowSpec> &Rows,
                          std::vector<std::unique_ptr<RowState>> &States,
                          std::string &Err) {
  States.clear();
  for (const RowSpec &R : Rows) {
    States.push_back(RowState::parse(R, Err));
    if (!States.back())
      return false;
  }
  return true;
}

PassResult perfbench::runPass(const std::vector<RowSpec> &Rows,
                              const std::vector<std::unique_ptr<RowState>> &Warm,
                              uint64_t Seed, uint64_t Pass, SpanLog *Log,
                              Counters *Sum) {
  const temos::PipelineOptions Opts{};
  std::vector<size_t> Order(Rows.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::shuffle(Order.begin(), Order.end(), std::mt19937_64(mix(Seed, Pass, 0)));

  PassResult P;
  std::unique_ptr<ScopedSpan> Root;
  if (Log)
    Root = std::make_unique<ScopedSpan>(*Log, "pass", -1);
  for (size_t I : Order) {
    RowState *State = Warm.empty() ? nullptr : Warm[I].get();
    uint64_t SimSeed = mix(Seed, Pass, I + 1);
    OpResult R =
        Log ? runTracedOperation(Rows[I], State, Opts, SimSeed, *Log,
                                 Root->index(), *Sum)
            : runOperation(Rows[I], State, Opts, SimSeed);
    P.WallSeconds += R.WallSeconds;
    P.CpuSeconds += R.CpuSeconds;
    P.JsLoc += R.JsLoc;
    const SliceTime Slice = runReferenceSlice();
    P.Reference.Wall += Slice.Wall;
    P.Reference.Cpu += Slice.Cpu;
    ++P.Slices;
    ++P.Attempted;
    if (!R.Problem.empty()) {
      ++P.Failed;
      std::fprintf(stderr, "FAILED %s (pass %llu): %s\n", Rows[I].Bench->Name,
                   (unsigned long long)Pass, R.Problem.c_str());
    }
  }
  return P;
}

namespace {

/// Span names of the replayed layer calls inside Synthesizer::run; the
/// rest of core.pipeline is core.unattributed_s.
const char *const ReplayedInRun[] = {"core.decompose", "core.consistency",
                                     "sygus.generate", "tsl2ltl.alphabet",
                                     "game.synthesize"};

} // namespace

std::map<std::string, double> perfbench::layerMetrics(const SpanLog &Log, size_t From,
                                           const Counters &C) {
  std::map<std::string, double> M = C;
  std::map<std::string, double> Self = Log.selfSeconds(From);
  for (const char *Span :
       {"logic.parse", "core.pipeline", "core.decompose", "core.consistency",
        "sygus.generate", "tsl2ltl.alphabet", "automata.nba", "codegen.emit",
        "codegen.check"})
    M[std::string(Span) + "_s"] = Self[Span];
  M["game.solve_s"] = Self["game.synthesize"] - Self["automata.nba"];
  double Unattributed = Self["core.pipeline"];
  for (const char *Span : ReplayedInRun)
    Unattributed -= Self[Span];
  M["core.unattributed_s"] = Unattributed;
  M["trace.overhead_s"] =
      Self["core.pipeline"] - M["trace.untraced_pipeline_s"];
  M["game.cpu_per_wall"] = M["game.wall_s"] > 0 ? M["game.cpu_s"] / M["game.wall_s"] : 0;
  const auto &Spans = Log.spans();
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Name == "core.pipeline")
      M[Spans[size_t(Spans[I].Parent)].Name + ".pipeline_s"] +=
          Spans[I].End - Spans[I].Start;
  return M;
}

