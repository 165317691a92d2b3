//===- tools/fuzz/Fuzz.h - Differential fuzzing harness --------*- C++ -*-===//
///
/// \file
/// temos-fuzz: a deterministic, seed-driven differential fuzzing harness
/// for the from-scratch substrates (SMT, SyGuS, parser, pipeline). Every
/// substrate the paper outsourced to CVC4/tsltools/Strix is reimplemented
/// here, so a silent soundness bug in any layer corrupts the whole
/// pipeline; differential oracles are the primary defense (the same
/// posture CVC5 and Z3 take).
///
/// Four cross-substrate oracles:
///  * theory    -- random QF_LIA/QF_LRA/QF_UF literal conjunctions,
///                 SmtSolver vs. brute-force ground evaluation over a
///                 bounded model grid (delta-rational strict-bound cases
///                 targeted explicitly);
///  * roundtrip -- print -> parse -> print fixpoint for generated
///                 formulas and whole specifications via ParseResult;
///  * sygus     -- synthesized candidates re-verified by independent
///                 ground execution; exclusion lists checked to exclude;
///  * pipeline  -- full runs at jobs=1 vs jobs=4, cache on vs. off,
///                 asserting byte-identical assumption sets and code.
///
/// On failure a greedy shrinker minimizes the case while the oracle
/// still fails, and one repro format records it: a
/// `// temos-fuzz repro: oracle=O seed=S iteration=I fault=K` header,
/// the description as `// ` lines, then the shrunk case. replayRepro()
/// re-runs the named oracle's own check on it. Fault injection
/// (--inject-fault) deliberately perturbs one substrate answer so the
/// harness's detection and shrinking paths stay themselves tested.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_TOOLS_FUZZ_FUZZ_H
#define TEMOS_TOOLS_FUZZ_FUZZ_H

#include <cstdint>
#include <string>
#include <vector>

namespace temos {
namespace fuzz {

/// A deliberately injected fault, used to prove the harness detects and
/// shrinks real bugs (none of these touch the shipped substrates; they
/// perturb the oracle's view of one substrate answer).
enum class FaultKind {
  None,
  /// Theory oracle: the first strict comparison handed to the SMT
  /// solver is weakened to its non-strict form (emulates an off-by-delta
  /// strict-bound bug in the simplex layer).
  FlipStrict,
  /// Theory oracle: the last literal is dropped from the solver's input
  /// (emulates a lost-constraint bug in literal translation).
  DropConjunct,
  /// Round-trip oracle: the first "&&" in the printed text becomes "||"
  /// before re-parsing (emulates a printer precedence/operator bug).
  MutatePrint,
  /// SyGuS oracle: the first step of the synthesized program is swapped
  /// for a different update choice without re-verification (emulates an
  /// unsound enumerator cache).
  SkipVerify,
  /// Pipeline oracle: the multi-threaded configuration silently runs
  /// the lazy strategy (emulates a configuration-plumbing bug).
  LazyConfig,
  /// Pipeline oracle: plants PipelineOptions::InjectSpinHang (a SyGuS
  /// enumeration that never terminates) under a short SyGuS time
  /// budget. "Detection" here means the deadline machinery tripped: the
  /// run came back within 2x the budget with a Timeout failure record
  /// instead of hanging. A deadline regression turns this into an
  /// undetected fault (or a hung harness), failing the run.
  SpinHang,
};

const char *faultName(FaultKind K);
bool parseFaultKind(const std::string &Name, FaultKind &Out);

/// Harness-wide options.
struct FuzzOptions {
  uint64_t Seed = 1;
  unsigned Iterations = 500;
  /// Directory for shrunk repro files; created on demand. Empty
  /// disables artifact writing.
  std::string ArtifactsDir = "fuzz-artifacts";
  FaultKind Fault = FaultKind::None;
  /// Stop an oracle after this many (shrunk) failures.
  unsigned MaxFailures = 3;
  bool Verbose = false;
};

/// One detected, shrunk discrepancy.
struct FailureCase {
  std::string Oracle;
  uint64_t Seed = 0;
  unsigned Iteration = 0;
  /// Human-readable statement of the disagreement.
  std::string Description;
  /// The whole repro file: header line, description, shrunk case.
  std::string Repro;
  /// Path of the written artifact; empty when writing was disabled.
  std::string ArtifactPath;
};

/// Outcome of one oracle's run.
struct OracleReport {
  std::string Oracle;
  unsigned Iterations = 0;
  /// Iterations skipped because the verdict was Unknown or the case was
  /// outside the brute-force grid's competence.
  unsigned Skipped = 0;
  std::vector<FailureCase> Failures;

  bool ok() const { return Failures.empty(); }
};

OracleReport runTheoryOracle(const FuzzOptions &Options);
OracleReport runRoundTripOracle(const FuzzOptions &Options);
OracleReport runSygusOracle(const FuzzOptions &Options);
OracleReport runPipelineOracle(const FuzzOptions &Options);

/// Runs every oracle with the same options.
std::vector<OracleReport> runAllOracles(const FuzzOptions &Options);

/// The command line that re-runs \p Oracle up to the failing
/// \p Iteration: `temos-fuzz --oracle O --seed S --iters I+1
/// [--inject-fault K]`.
std::string rerunCommand(const std::string &Oracle, uint64_t Seed,
                         unsigned Iteration, FaultKind Fault);

/// What replaying a file found.
enum class ReplayVerdict {
  /// The recorded failure happens again.
  Reproduces,
  /// The check ran and passed: the failure is gone.
  Clean,
  /// Nothing could be checked: no known header, a body that does not
  /// parse, an Unknown solver verdict, or a sygus repro (which is not a
  /// spec; the report names the command that re-runs its oracle).
  Unchecked,
};

struct ReplayResult {
  ReplayVerdict Verdict = ReplayVerdict::Unchecked;
  /// Human-readable account of what was re-run and what it found.
  std::string Report;
};

/// The one replay entry point, for every file the harness or the temos
/// CLI writes. A `// temos-fuzz repro:` file re-runs the named oracle's
/// check on its body under the recorded fault: theory re-checks solver
/// vs. ground truth, roundtrip re-runs the formula or spec round trip,
/// pipeline re-runs the cross-configuration diff. A `// temos-artifact:`
/// file (a degraded run's dump, or the body of a spin-hang repro)
/// re-runs the pipeline under its recorded options and reproduces when
/// the run still degrades.
ReplayResult replayRepro(const std::string &Text);

} // namespace fuzz
} // namespace temos

#endif // TEMOS_TOOLS_FUZZ_FUZZ_H
