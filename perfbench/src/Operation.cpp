//===- perfbench/src/Operation.cpp - One checked synthesis -----------------===//

#include "Operation.h"

#include "automata/Tableau.h"
#include "codegen/CodeEmitter.h"
#include "codegen/Interpreter.h"
#include "codegen/TraceChecker.h"
#include "core/Decomposition.h"
#include "logic/Parser.h"
#include "logic/Simplify.h"

#include <random>

using namespace perfbench;
using namespace temos;

namespace {

/// Steps each synthesized machine is simulated for.
constexpr size_t SimulationSteps = 100;

const char *verdictName(Realizability S) {
  switch (S) {
  case Realizability::Realizable:
    return "realizable";
  case Realizability::Unrealizable:
    return "unrealizable";
  case Realizability::Unknown:
    return "unknown";
  }
  return "?";
}

/// One step's input values: booleans fair coins, integers in [0, 9]
/// (inside every bundled `always assume` range), reals integral in
/// [0, 99], opaque inputs the symbol named after the input.
Assignment randomInputs(const Specification &Spec, std::mt19937_64 &Rng) {
  Assignment In;
  for (const SignalDecl &D : Spec.Inputs) {
    switch (D.S) {
    case Sort::Bool:
      In[D.Name] = Value::boolean(Rng() & 1);
      break;
    case Sort::Int:
      In[D.Name] = Value::integer(int64_t(Rng() % 10));
      break;
    case Sort::Real:
      In[D.Name] = Value::integer(int64_t(Rng() % 100));
      break;
    case Sort::Opaque:
      In[D.Name] = Value::symbol(D.Name);
      break;
    }
  }
  return In;
}

/// Simulates the machine and monitors the recorded trace.
std::string simulate(const Specification &Spec, Context &Ctx,
                     const PipelineResult &Result, uint64_t SimSeed) {
  std::mt19937_64 Rng(SimSeed);
  Controller C(*Result.Machine, Result.AB, Spec);
  Trace T;
  for (size_t Step = 0; Step < SimulationSteps; ++Step) {
    auto Outcome = C.step(randomInputs(Spec, Rng));
    if (!Outcome)
      return "simulation: step " + std::to_string(Step) +
             " could not be evaluated";
    T.append(Result.AB, *Outcome);
  }
  for (const Formula *A : Spec.Assumptions)
    if (!T.noViolation(Ctx.Formulas.globally(A)))
      return "simulation: generated inputs violate assumption " + A->str();
  for (const Formula *G : Spec.AlwaysGuarantees)
    if (!T.noViolation(Ctx.Formulas.globally(G)))
      return "simulation: trace violates G " + G->str();
  for (const Formula *G : Spec.Guarantees)
    if (!T.noViolation(G))
      return "simulation: trace violates " + G->str();
  return "";
}

std::string emitJs(const PipelineResult &R, const Specification &Spec) {
  return R.Machine ? emitJavaScript(*R.Machine, R.AB, Spec) : std::string();
}

/// The row state an operation works on: \p Warm, or a fresh parse held
/// by \p Fresh.
RowState *stateFor(const RowSpec &Row, RowState *Warm,
                   std::unique_ptr<RowState> &Fresh, std::string &Err) {
  if (Warm)
    return Warm;
  Fresh = RowState::parse(Row, Err);
  return Fresh.get();
}

} // namespace

std::unique_ptr<RowState> RowState::parse(const RowSpec &R, std::string &Err) {
  auto S = std::make_unique<RowState>();
  S->Ctx = std::make_unique<Context>();
  auto Parsed = parseSpecification(R.Bench->Source, *S->Ctx);
  if (!Parsed) {
    Err = "parse error: " + Parsed.error().str();
    return nullptr;
  }
  S->Spec = *Parsed;
  S->Synth = std::make_unique<Synthesizer>(*S->Ctx);
  return S;
}

std::string perfbench::checkOutputs(const RowSpec &Row,
                                    const Specification &Spec, Context &Ctx,
                                    const PipelineResult &Result,
                                    const std::string &Js, uint64_t SimSeed) {
  const GoldenSummary &Want = Row.Expected;
  if (Want.Verdict != "realizable")
    return "golden verdict is '" + Want.Verdict + "', not realizable";
  if (Result.Status != Realizability::Realizable)
    return std::string("verdict ") + verdictName(Result.Status);
  if (!Result.Stats.Failures.empty())
    return "failure record in phase " + Result.Stats.Failures.front().Phase +
           ": " + Result.Stats.Failures.front().Detail;
  if (!Result.Machine)
    return "realizable without a machine";
  if (Result.Machine->stateCount() != Want.MachineStates)
    return "machine states " + std::to_string(Result.Machine->stateCount()) +
           ", golden " + std::to_string(Want.MachineStates);
  if (countLines(Js) != Want.JsLoc)
    return "JavaScript LoC " + std::to_string(countLines(Js)) + ", golden " +
           std::to_string(Want.JsLoc);
  return simulate(Spec, Ctx, Result, SimSeed);
}

OpResult perfbench::runOperation(const RowSpec &Row, RowState *Warm,
                                 const PipelineOptions &Opts,
                                 uint64_t SimSeed) {
  OpResult Out;
  std::unique_ptr<RowState> Fresh;
  const double Wall0 = wallNow(), Cpu0 = cpuNow();
  RowState *S = stateFor(Row, Warm, Fresh, Out.Problem);
  if (!S)
    return Out;
  PipelineResult R = S->Synth->run(S->Spec, Opts);
  std::string Js = emitJs(R, S->Spec);
  Out.WallSeconds = wallNow() - Wall0;
  Out.CpuSeconds = cpuNow() - Cpu0;
  Out.JsLoc = countLines(Js);
  Out.Problem = checkOutputs(Row, S->Spec, *S->Ctx, R, Js, SimSeed);
  return Out;
}

namespace {

/// The traced part of runTracedOperation: the pipeline, emit and check
/// under spans, then the layer replays. Fills \p Out; returns false when
/// a problem was found.
bool traceOperation(const RowSpec &Row, RowState *Warm,
                    const PipelineOptions &Opts, uint64_t SimSeed,
                    SpanLog &Log, int Parent, Counters &Sum, OpResult &Out) {
  const std::string Name = sanitizeName(Row.Bench->Name);
  ScopedSpan Spec(Log, "spec." + Name, Parent);
  std::unique_ptr<RowState> Fresh;
  RowState *S = nullptr;
  {
    ScopedSpan Parse(Log, "logic.parse", Spec.index());
    S = stateFor(Row, Warm, Fresh, Out.Problem);
  }
  if (!S)
    return false;
  Context &Ctx = *S->Ctx;
  const double Wall0 = wallNow(), Cpu0 = cpuNow();
  PipelineResult R;
  {
    ScopedSpan Pipeline(Log, "core.pipeline", Spec.index());
    R = S->Synth->run(S->Spec, Opts);
  }
  Out.WallSeconds = wallNow() - Wall0;
  Out.CpuSeconds = cpuNow() - Cpu0;
  std::string Js;
  {
    ScopedSpan Emit(Log, "codegen.emit", Spec.index());
    Js = emitJs(R, S->Spec);
  }
  Out.JsLoc = countLines(Js);
  {
    ScopedSpan Check(Log, "codegen.check", Spec.index());
    Out.Problem = checkOutputs(Row, S->Spec, Ctx, R, Js, SimSeed);
  }
  if (!Out.Problem.empty())
    return false;

  // Counters the pipeline reports in its public result.
  const PipelineStats &PS = R.Stats;
  Sum["core.refinements"] += PS.Refinements;
  Sum["core.reactive_runs"] += PS.ReactiveRuns;
  Sum["core.consistency_queries"] += double(PS.ConsistencyQueries);
  Sum["theory.smt_cache_hits"] += double(PS.CacheHits);
  Sum["theory.smt_cache_misses"] += double(PS.CacheMisses);
  Sum["sygus.assumptions"] += double(R.SygusAssumptions.size());
  Sum["automata.expansion_hits"] += double(PS.ExpansionCacheHits);
  Sum["automata.expansion_misses"] += double(PS.ExpansionCacheMisses);
  Sum["game.states"] += double(PS.GameStates);
  Sum["game.nba_cache_hits"] += double(PS.NbaCacheHits);
  for (const ReactiveRunStats &Run : PS.ReactiveDetail)
    Sum["game.arena_states_reused"] += double(Run.ArenaStatesReused);
  Sum["game.machine_states"] += double(R.Machine->stateCount());

  // Replay each layer's public function on the pipeline's inputs. The
  // warm workload replays against the row's kept service and engine, so
  // the replays see the same caches the pipeline run saw.
  std::unique_ptr<SolverService> FreshService;
  SolverService *Svc = Warm ? S->Synth->solverService().get() : nullptr;
  if (!Svc) {
    SolverService::Config C;
    C.NumThreads = Opts.Parallelism.NumThreads;
    C.CacheEnabled = Opts.Parallelism.CacheEnabled;
    FreshService = std::make_unique<SolverService>(S->Spec.Th, C);
    Svc = FreshService.get();
  }

  Decomposition Decomp;
  {
    ScopedSpan Span(Log, "core.decompose", Spec.index());
    Decomp = decompose(S->Spec, Ctx, Opts.Decomp);
  }
  Sum["core.obligations"] += double(Decomp.Obligations.size());
  {
    ScopedSpan Span(Log, "core.consistency", Spec.index());
    checkConsistency(Decomp.PredicateLiterals, S->Spec.Th, Ctx,
                     Opts.Consistency, Svc);
  }
  {
    ScopedSpan Span(Log, "sygus.generate", Spec.index());
    AssumptionGenerator Gen(S->Spec, Ctx);
    Gen.Opts = Opts.Sygus;
    Gen.setService(Svc);
    // The pipeline stops generating at the assumption cap; so does the
    // replay.
    size_t Generated = 0;
    for (const Obligation &Ob : Decomp.Obligations) {
      if (Generated >= Opts.MaxSygusAssumptions)
        break;
      Generated += Gen.generate(Ob) ? 1 : 0;
    }
  }

  const Formula *Phi = S->Synth->formulaWithAssumptions(S->Spec, R.Assumptions);
  if (Opts.SimplifyBeforeSynthesis)
    Phi = simplify(Phi, Ctx.Formulas);
  Alphabet AB;
  {
    ScopedSpan Span(Log, "tsl2ltl.alphabet", Spec.index());
    std::vector<const Formula *> ForAlphabet = R.Assumptions;
    ForAlphabet.push_back(Phi);
    AB = Alphabet::build(S->Spec, Ctx, ForAlphabet);
  }
  Sum["tsl2ltl.input_letters"] += double(AB.inputLetterCount());
  Sum["tsl2ltl.output_letters"] += double(AB.outputLetterCount());

  // The final reactive run built its UCW only if it missed the engine's
  // NBA cache; replaying a build it did not do would count time twice.
  if (!PS.ReactiveDetail.back().NbaCacheHit) {
    ScopedSpan Span(Log, "automata.nba", Spec.index());
    TableauCache Cache;
    buildNba(Ctx.Formulas.notF(Phi), Ctx, AB, nullptr,
             Opts.Reactive.Tableau, &Cache);
  }

  SynthesisEngine FreshEngine;
  SynthesisEngine &Engine = Warm ? S->Synth->engine() : FreshEngine;
  SynthesisResult Game;
  const double GameWall0 = wallNow(), GameCpu0 = cpuNow();
  {
    ScopedSpan Span(Log, "game.synthesize", Spec.index());
    Game = Engine.synthesize(Phi, Ctx, AB, Opts.Reactive, &Svc->pool());
  }
  const double GameWall = wallNow() - GameWall0;
  Sum["game.cpu_s"] += cpuNow() - GameCpu0;
  Sum["game.wall_s"] += GameWall;
  Sum["game.bound"] = std::max(Sum["game.bound"], double(Game.Stats.BoundUsed));
  Sum["automata.generalized_states"] += double(Game.Stats.Tableau.GeneralizedStates);
  Sum["automata.nba_states"] += double(Game.Stats.Tableau.NbaStates);
  Sum["automata.nba_transitions"] += double(Game.Stats.Tableau.NbaTransitions);
  if (Game.Status != Realizability::Realizable || !Game.Machine ||
      Game.Machine->stateCount() != R.Machine->stateCount())
    Out.Problem = "replayed game disagrees with the pipeline's machine";
  return Out.Problem.empty();
}

} // namespace

OpResult perfbench::runTracedOperation(const RowSpec &Row, RowState *Warm,
                                       const PipelineOptions &Opts,
                                       uint64_t SimSeed, SpanLog &Log,
                                       int Parent, Counters &Sum) {
  OpResult Out;
  // The same pipeline run with no span around it, the baseline for the
  // tracing overhead. It runs before or after the traced operation, as
  // the simulation seed's low bit says, so that running second (on a
  // warmer heap) favours neither side.
  auto Untraced = [&] {
    std::unique_ptr<RowState> Fresh;
    RowState *S = stateFor(Row, Warm, Fresh, Out.Problem);
    if (!S)
      return false;
    const double Wall0 = wallNow();
    S->Synth->run(S->Spec, Opts);
    Sum["trace.untraced_pipeline_s"] += wallNow() - Wall0;
    return true;
  };
  const bool UntracedFirst = SimSeed & 1;
  if (UntracedFirst && !Untraced())
    return Out;
  if (!traceOperation(Row, Warm, Opts, SimSeed, Log, Parent, Sum, Out))
    return Out;
  if (!UntracedFirst)
    Untraced();
  return Out;
}
