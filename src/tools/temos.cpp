//===- tools/temos.cpp - The temos command-line driver --------------------===//
///
/// \file
/// Command-line front end mirroring the paper's tool: reads a TSL-MT
/// specification, runs the full pipeline, and emits executable code.
///
///   temos spec.tslmt                 synthesize, print a summary
///   temos --emit=js spec.tslmt       print the JavaScript controller
///   temos --emit=cpp spec.tslmt      print the C++ controller
///   temos --emit=assumptions ...     print the generated assumptions
///   temos --emit=summary ...         print the summary table (default)
///   temos --jobs N spec.tslmt        fan solver work out over N threads
///   temos --no-cache spec.tslmt      disable the SMT query cache
///   temos --simulate N spec.tslmt    run the controller N steps (inputs
///                                    default to zero/false) and print
///                                    the cell trace
///   temos --lazy spec.tslmt          use the lazy assumption strategy
///   temos --benchmark NAME           run a bundled Table-1 benchmark
///   temos --list                     list the bundled benchmarks
///   temos --bench-json[=PATH] ...    also write the machine-readable
///                                    temos-bench-v1 run record (default
///                                    BENCH_<name>.json in the current
///                                    directory)
///   temos --repeat N ...             run the pipeline N times on one
///                                    synthesizer; the bench record's
///                                    "repeat" object then shows the
///                                    incremental engine's cross-run
///                                    reuse (summary/emission still
///                                    reflect the first run)
///   temos --time-budget S ...        cap the whole run at S wall-clock
///                                    seconds; on expiry each phase
///                                    degrades gracefully and the tool
///                                    reports unknown (exit 4)
///   temos --artifacts DIR ...        where degraded/crashed runs dump
///                                    their replayable artifact
///                                    (default temos-artifacts; 'none'
///                                    disables); replay with
///                                    `temos-fuzz --replay FILE`
///   temos --inject-fault=spin-hang   plant a non-terminating SyGuS
///                                    search (testing only) to prove
///                                    the deadline machinery trips
///
/// Exit codes (also in the README):
///   0  synthesis succeeded
///   1  input error: unreadable file, parse error, unknown benchmark, I/O
///   2  usage error / invalid option combination
///   3  unrealizable within the bounded-synthesis budget
///   4  resource exhausted: a time/state budget degraded the run to
///      unknown (details in the failure records)
///
//===----------------------------------------------------------------------===//

#include "benchmarks/BenchJson.h"
#include "benchmarks/Benchmarks.h"
#include "codegen/CodeEmitter.h"
#include "codegen/Interpreter.h"
#include "core/RunArtifact.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

using namespace temos;

namespace {

/// Exit codes; keep in sync with the file header and the README table.
enum ExitCode {
  ExitSuccess = 0,
  ExitInputError = 1,
  ExitUsage = 2,
  ExitUnrealizable = 3,
  ExitResourceExhausted = 4,
};

int usage(const char *Program) {
  std::fprintf(
      stderr,
      "usage: %s [--emit=<js|cpp|assumptions|summary>] [--jobs N] "
      "[--no-cache] [--simulate N] [--lazy] [--bench-json[=PATH]] "
      "[--repeat N] [--time-budget S] [--artifacts DIR|none] "
      "[--inject-fault=spin-hang] "
      "(spec.tslmt | --benchmark NAME | --list)\n",
      Program);
  return ExitUsage;
}

/// What the tool prints on success.
enum class EmitKind { Summary, Js, Cpp, Assumptions };

/// Parses an --emit= payload; returns false on an unknown value.
bool parseEmitKind(const char *Value, EmitKind &Out) {
  if (std::strcmp(Value, "js") == 0)
    Out = EmitKind::Js;
  else if (std::strcmp(Value, "cpp") == 0)
    Out = EmitKind::Cpp;
  else if (std::strcmp(Value, "assumptions") == 0)
    Out = EmitKind::Assumptions;
  else if (std::strcmp(Value, "summary") == 0)
    Out = EmitKind::Summary;
  else
    return false;
  return true;
}

/// One line per failure record, e.g.
/// "  failure: timeout [sygus] 2 of 3 obligations unresolved ...".
void printFailures(std::FILE *Stream, const PipelineStats &Stats) {
  for (const FailureRecord &F : Stats.Failures)
    std::fprintf(Stream, "  failure: %s\n", F.str().c_str());
}

} // namespace

int main(int argc, char **argv) {
  EmitKind Emit = EmitKind::Summary;
  bool Lazy = false;
  unsigned Jobs = 1;
  bool CacheEnabled = true;
  long SimulateSteps = -1;
  const char *Path = nullptr;
  const char *BenchmarkName = nullptr;
  bool BenchJsonWanted = false;
  std::string BenchJsonPath;
  unsigned Repeats = 1;
  double TimeBudget = 0;
  bool InjectSpinHang = false;
  std::string ArtifactsDir = "temos-artifacts";

  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--list") == 0) {
      for (const BenchmarkSpec &B : allBenchmarks())
        std::printf("%-18s (%s)\n", B.Name, B.Family);
      return 0;
    } else if (std::strcmp(argv[I], "--benchmark") == 0 && I + 1 < argc) {
      BenchmarkName = argv[++I];
    } else if (std::strncmp(argv[I], "--emit=", 7) == 0) {
      if (!parseEmitKind(argv[I] + 7, Emit)) {
        std::fprintf(stderr, "error: unknown --emit value '%s'\n",
                     argv[I] + 7);
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[I], "--jobs") == 0 && I + 1 < argc) {
      char *End = nullptr;
      long N = std::strtol(argv[++I], &End, 10);
      if (N < 1 || End == argv[I] || *End != '\0') {
        std::fprintf(stderr, "error: --jobs needs a positive thread count\n");
        return usage(argv[0]);
      }
      Jobs = static_cast<unsigned>(N);
    } else if (std::strcmp(argv[I], "--no-cache") == 0) {
      CacheEnabled = false;
    } else if (std::strcmp(argv[I], "--bench-json") == 0) {
      BenchJsonWanted = true;
    } else if (std::strncmp(argv[I], "--bench-json=", 13) == 0) {
      BenchJsonWanted = true;
      BenchJsonPath = argv[I] + 13;
    } else if (std::strcmp(argv[I], "--repeat") == 0 && I + 1 < argc) {
      char *End = nullptr;
      long N = std::strtol(argv[++I], &End, 10);
      if (N < 1 || End == argv[I] || *End != '\0') {
        std::fprintf(stderr, "error: --repeat needs a positive run count\n");
        return usage(argv[0]);
      }
      Repeats = static_cast<unsigned>(N);
    } else if (std::strcmp(argv[I], "--time-budget") == 0 && I + 1 < argc) {
      char *End = nullptr;
      double S = std::strtod(argv[++I], &End);
      if (End == argv[I] || *End != '\0' || !std::isfinite(S) || S <= 0) {
        std::fprintf(
            stderr,
            "error: --time-budget needs a positive, finite second count\n");
        return usage(argv[0]);
      }
      TimeBudget = S;
    } else if (std::strcmp(argv[I], "--artifacts") == 0 && I + 1 < argc) {
      ++I;
      ArtifactsDir = std::strcmp(argv[I], "none") == 0 ? "" : argv[I];
    } else if (std::strncmp(argv[I], "--inject-fault=", 15) == 0) {
      if (std::strcmp(argv[I] + 15, "spin-hang") != 0) {
        std::fprintf(stderr, "error: unknown --inject-fault value '%s' "
                             "(only spin-hang is supported)\n",
                     argv[I] + 15);
        return usage(argv[0]);
      }
      InjectSpinHang = true;
    } else if (std::strcmp(argv[I], "--lazy") == 0) {
      Lazy = true;
    } else if (std::strcmp(argv[I], "--simulate") == 0 && I + 1 < argc) {
      char *End = nullptr;
      long N = std::strtol(argv[++I], &End, 10);
      if (N < 0 || End == argv[I] || *End != '\0') {
        std::fprintf(stderr,
                     "error: --simulate needs a non-negative step count\n");
        return usage(argv[0]);
      }
      SimulateSteps = N;
    } else if (argv[I][0] == '-') {
      return usage(argv[0]);
    } else {
      Path = argv[I];
    }
  }
  std::string Source;
  if (BenchmarkName) {
    const BenchmarkSpec *B = findBenchmark(BenchmarkName);
    if (!B) {
      std::fprintf(stderr, "error: unknown benchmark '%s' (try --list)\n",
                   BenchmarkName);
      return ExitInputError;
    }
    Source = B->Source;
    Path = BenchmarkName;
  } else {
    if (!Path)
      return usage(argv[0]);
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path);
      return ExitInputError;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
  }

  Context Ctx;
  auto Spec = parseSpecification(Source, Ctx);
  if (!Spec) {
    std::fprintf(stderr, "%s:%s\n", Path, Spec.error().str().c_str());
    return ExitInputError;
  }

  Synthesizer Synth(Ctx);
  PipelineOptions Options;
  Options.Eager = !Lazy;
  Options.Parallelism.NumThreads = Jobs;
  Options.Parallelism.CacheEnabled = CacheEnabled;
  Options.Budget.TotalSeconds = TimeBudget;
  Options.InjectSpinHang = InjectSpinHang;
  PipelineResult R = Synth.run(*Spec, Options);

  // A diagnostic without failure records is an up-front refusal (option
  // validation); with records it is a contained pipeline abort, which
  // flows through the normal failure reporting below.
  if (!R.Diagnostic.empty() && R.Stats.Failures.empty()) {
    std::fprintf(stderr, "error: invalid options: %s\n", R.Diagnostic.c_str());
    return ExitUsage;
  }
  // Extra runs on the same Synthesizer exercise the incremental engine's
  // cross-run reuse; everything the tool prints still reflects run one.
  std::optional<PipelineStats> RepeatStats;
  for (unsigned I = 1; I < Repeats; ++I)
    RepeatStats = Synth.run(*Spec, Options).Stats;
  if (BenchJsonWanted) {
    // Written for every verdict: a run that degraded to unknown should
    // fail the perf gate loudly, not silently skip its record.
    size_t MachineStates = R.Machine ? R.Machine->stateCount() : 0;
    size_t JsLoc = R.Machine
                       ? countLines(emitJavaScript(*R.Machine, R.AB, *Spec))
                       : 0;
    std::string Json =
        benchJson(Spec->Name, R.Status, Jobs, CacheEnabled, R.Stats,
                  MachineStates, JsLoc, RepeatStats ? &*RepeatStats : nullptr);
    std::string Written = writeTextFile(
        "", BenchJsonPath.empty() ? benchJsonFileName(Spec->Name)
                                  : BenchJsonPath,
        Json);
    if (Written.empty()) {
      std::fprintf(stderr, "error: cannot write bench JSON\n");
      return ExitInputError;
    }
    std::fprintf(stderr, "bench json: %s\n", Written.c_str());
  }
  // Degraded or aborted runs dump a replayable artifact (spec + failure
  // records + options), whatever the final verdict.
  if (!R.Stats.Failures.empty() && !ArtifactsDir.empty()) {
    std::string Artifact = writeTextFile(
        ArtifactsDir, "temos-artifact-" + fileSafeName(Spec->Name) + ".tslmt",
        runArtifactText(Spec->Name, R, Options, Source));
    if (!Artifact.empty())
      std::fprintf(stderr, "artifact: %s\n", Artifact.c_str());
  }
  if (R.Status != Realizability::Realizable) {
    std::fprintf(stderr, "%s: %s\n", Spec->Name.c_str(),
                 R.Status == Realizability::Unrealizable
                     ? "unrealizable (within the bounded-synthesis budget)"
                     : "unknown (resource budget exceeded)");
    printFailures(stderr, R.Stats);
    return R.Status == Realizability::Unrealizable ? ExitUnrealizable
                                                   : ExitResourceExhausted;
  }

  if (Emit == EmitKind::Assumptions) {
    for (const Formula *A : R.Assumptions)
      std::printf("%s\n", A->str().c_str());
    return 0;
  }
  if (Emit == EmitKind::Js) {
    std::printf("%s", emitJavaScript(*R.Machine, R.AB, *Spec).c_str());
    return 0;
  }
  if (Emit == EmitKind::Cpp) {
    std::printf("%s", emitCpp(*R.Machine, R.AB, *Spec).c_str());
    return 0;
  }
  if (SimulateSteps >= 0) {
    Controller C(*R.Machine, R.AB, *Spec);
    Assignment Inputs;
    for (const SignalDecl &D : Spec->Inputs) {
      switch (D.S) {
      case Sort::Bool:
        Inputs[D.Name] = Value::boolean(false);
        break;
      case Sort::Int:
      case Sort::Real:
        Inputs[D.Name] = Value::integer(0);
        break;
      case Sort::Opaque:
        Inputs[D.Name] = Value::symbol("@" + D.Name);
        break;
      }
    }
    for (long Step = 0; Step < SimulateSteps; ++Step) {
      auto Outcome = C.step(Inputs);
      if (!Outcome) {
        std::fprintf(stderr, "step %ld: evaluation failed\n", Step);
        return 1;
      }
      std::printf("step %ld:", Step);
      for (const auto &[Name, V] : C.cells())
        std::printf(" %s=%s", Name.c_str(), V.str().c_str());
      std::printf("\n");
    }
    return 0;
  }

  std::printf("%s: realizable\n", Spec->Name.c_str());
  std::printf("  theory:           %s\n", theoryName(Spec->Th));
  std::printf("  |phi|=%zu |P|=%zu |F|=%zu |psi|=%zu\n", R.Stats.SpecSize,
              R.Stats.PredicateCount, R.Stats.UpdateTermCount,
              R.Stats.AssumptionCount);
  std::printf("  psi generation:   %.3fs wall, %.3fs cpu\n",
              R.Stats.PsiGenSeconds, R.Stats.PsiGenCpuSeconds);
  std::printf("  TSL synthesis:    %.3fs wall, %.3fs cpu "
              "(%u refinement rounds)\n",
              R.Stats.SynthesisSeconds, R.Stats.SynthesisCpuSeconds,
              R.Stats.Refinements);
  std::printf("  solver jobs:      %u thread%s, cache %s "
              "(%zu hits, %zu misses)\n",
              Jobs, Jobs == 1 ? "" : "s", CacheEnabled ? "on" : "off",
              R.Stats.CacheHits, R.Stats.CacheMisses);
  std::printf("  machine states:   %zu\n", R.Machine->stateCount());
  std::printf("  JavaScript LoC:   %zu\n",
              countLines(emitJavaScript(*R.Machine, R.AB, *Spec)));
  // Only on degraded runs, so clean summaries stay byte-stable for the
  // golden suite.
  if (!R.Stats.Failures.empty()) {
    std::printf("  failures:         %zu\n", R.Stats.Failures.size());
    printFailures(stdout, R.Stats);
  }
  return ExitSuccess;
}
