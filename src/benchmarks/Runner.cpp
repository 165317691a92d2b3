//===- benchmarks/Runner.cpp - Shared benchmark harness --------------------===//

#include "benchmarks/Runner.h"

#include "codegen/CodeEmitter.h"
#include "logic/Parser.h"

#include <cstdio>

using namespace temos;

BenchmarkRun temos::runBenchmark(const BenchmarkSpec &B,
                                 const PipelineOptions &Options,
                                 unsigned Repeats) {
  BenchmarkRun Run;
  Run.Bench = &B;
  Run.Ctx = std::make_shared<Context>();

  auto Spec = parseSpecification(B.Source, *Run.Ctx);
  if (!Spec)
    return Run;
  Run.Spec = *Spec;
  Run.Parsed = true;

  Synthesizer Synth(*Run.Ctx);
  Run.Result = Synth.run(Run.Spec, Options);
  for (unsigned I = 1; I < Repeats; ++I) {
    PipelineResult Again = Synth.run(Run.Spec, Options);
    Run.RepeatStats.push_back(Again.Stats);
  }

  if (Run.Result.Machine)
    Run.SynthesizedLoc = countLines(
        emitJavaScript(*Run.Result.Machine, Run.Result.AB, Run.Spec));
  return Run;
}

std::string temos::formatTable(const std::vector<BenchmarkRun> &Runs) {
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line), "%-18s %-14s %5s %4s %4s %5s %10s %9s %8s %6s %s\n",
                "Benchmark", "", "|phi|", "|P|", "|F|", "|psi|",
                "psi-gen(s)", "synth(s)", "sum(s)", "LoC", "status");
  Out += Line;
  Out += std::string(110, '-') + "\n";
  std::string LastFamily;
  for (const BenchmarkRun &R : Runs) {
    if (R.Bench->Family != LastFamily) {
      Out += R.Bench->Family + std::string("\n");
      LastFamily = R.Bench->Family;
    }
    const Realizability Verdict = R.Result.Status;
    const char *Status = !R.Parsed ? "PARSE-ERROR"
                         : Verdict == Realizability::Realizable
                             ? "ok"
                             : (Verdict == Realizability::Unrealizable
                                    ? "UNREALIZABLE"
                                    : "UNKNOWN");
    const PipelineStats &S = R.Result.Stats;
    std::snprintf(Line, sizeof(Line),
                  "%-18s %-14s %5zu %4zu %4zu %5zu %10.3f %9.3f %8.3f %6zu %s\n",
                  "", R.Bench->Name, S.SpecSize, S.PredicateCount,
                  S.UpdateTermCount, S.AssumptionCount, S.PsiGenSeconds,
                  S.SynthesisSeconds, R.seconds(), R.SynthesizedLoc, Status);
    Out += Line;
  }
  return Out;
}
