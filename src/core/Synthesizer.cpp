//===- core/Synthesizer.cpp - TSL-MT synthesis pipeline --------------------===//

#include "core/Synthesizer.h"

#include "logic/Simplify.h"
#include "support/Rational.h"
#include "support/Timer.h"

#include <algorithm>

using namespace temos;

namespace {

/// Cap on W-encoded loop assumptions (Alg. 3), within the SyGuS cap:
/// each one adds an Until and an Eventually acceptance set to the
/// underlying automaton, which the explicit tableau pays for
/// exponentially.
constexpr size_t MaxLoopAssumptions = 3;

} // namespace

std::string PipelineOptions::validate() const {
  if (Parallelism.NumThreads == 0)
    return "Parallelism.NumThreads must be at least 1 (0 would leave the "
           "solver pool with no thread to run queries)";
  // Zero is a meaningful "phase disabled" setting for MaxObligations /
  // MaxSubsetSize, so those are not rejected; only combinations no
  // configuration could ever want are.
  if (Budget.TotalSeconds < 0 || Budget.SygusSeconds < 0)
    return "time budgets must be non-negative (0 means unlimited)";
  if (InjectSpinHang && Budget.TotalSeconds == 0 && Budget.SygusSeconds == 0)
    return "InjectSpinHang without a total or SyGuS time budget would spin "
           "forever: the injected fault is only ever exited through a "
           "deadline poll";
  return "";
}

const Formula *Synthesizer::formulaWithAssumptions(
    const Specification &Spec, const std::vector<const Formula *> &Assumptions) {
  const Formula *Guar = Spec.guaranteeFormula(Ctx);
  std::vector<const Formula *> Assume;
  for (const Formula *A : Spec.Assumptions)
    Assume.push_back(Ctx.Formulas.globally(A));
  // Generated assumptions are already G-wrapped by construction.
  Assume.insert(Assume.end(), Assumptions.begin(), Assumptions.end());
  if (Assume.empty())
    return Guar;
  return Ctx.Formulas.implies(Ctx.Formulas.andF(std::move(Assume)), Guar);
}

namespace {

/// Builds the Unknown result for an exception that unwound the whole
/// pipeline (as opposed to the per-phase degradations, which keep their
/// partial results).
PipelineResult pipelineFailure(FailureKind Kind, std::string Detail) {
  PipelineResult Result;
  Result.Status = Realizability::Unknown;
  Result.Diagnostic = "pipeline aborted: " + Detail;
  Result.Stats.Failures.push_back(
      {Kind, "pipeline", std::move(Detail)});
  return Result;
}

} // namespace

PipelineResult Synthesizer::run(const Specification &Spec,
                                const PipelineOptions &Options) {
  if (std::string Problem = Options.validate(); !Problem.empty()) {
    PipelineResult Result;
    Result.Status = Realizability::Unknown;
    Result.Diagnostic = std::move(Problem);
    return Result;
  }
  // Failure containment: nothing thrown below this frame terminates the
  // process. Per-phase handlers degrade in place (keeping partial
  // results); anything that still unwinds to here -- including worker
  // exceptions rethrown deterministically at SolverPool::wait() -- is
  // mapped onto the failure taxonomy and reported as Unknown.
  try {
    return runPipeline(Spec, Options);
  } catch (const DeadlineExpired &E) {
    return pipelineFailure(FailureKind::Timeout, E.what());
  } catch (const RationalOverflow &E) {
    return pipelineFailure(FailureKind::Overflow, E.what());
  } catch (const std::exception &E) {
    return pipelineFailure(FailureKind::WorkerException, E.what());
  } catch (...) {
    return pipelineFailure(FailureKind::Internal, "unknown exception");
  }
}

SolverService &Synthesizer::ensureService(Theory Th,
                                          const PipelineOptions &Options) {
  if (!Service || Service->theory() != Th ||
      Service->config() != Options.Parallelism)
    Service = std::make_shared<SolverService>(Th, Options.Parallelism);
  return *Service;
}

namespace {

/// |phi| for Table 1: total AST size of the user's specification.
size_t specSize(const Specification &Spec) {
  size_t Total = 0;
  for (const Formula *F : Spec.Assumptions)
    Total += F->size();
  for (const Formula *F : Spec.AlwaysGuarantees)
    Total += F->size();
  for (const Formula *F : Spec.Guarantees)
    Total += F->size();
  return Total;
}

/// Classifies a reactive-synthesis Unknown into the failure taxonomy:
/// deadline expiry is a Timeout, the state/transition budgets are
/// StateBudget.
void recordReactiveFailure(PipelineResult &Result,
                           const SynthesisResult &Reactive) {
  FailureKind Kind = Reactive.Stats.TimedOut ? FailureKind::Timeout
                                             : FailureKind::StateBudget;
  std::string Detail;
  const size_t AcceptanceSets = Reactive.Stats.Tableau.AcceptanceSets;
  if (AcceptanceSets > MaxAcceptanceSets)
    Detail = std::to_string(AcceptanceSets) +
             " acceptance sets; the tableau tracks at most " +
             std::to_string(MaxAcceptanceSets);
  else if (Reactive.Stats.Tableau.BudgetExceeded)
    Detail = Reactive.Stats.TimedOut
                 ? "deadline expired during UCW construction"
                 : "tableau state/transition budget exceeded";
  else
    Detail = Reactive.Stats.TimedOut
                 ? "deadline expired during game exploration/solving"
                 : "game state budget exceeded";
  Result.Stats.Failures.push_back({Kind, "reactive", std::move(Detail)});
}

/// Programs the refinement loop (Alg. 4) has ruled out for one SyGuS
/// assumption.
struct Exclusions {
  std::vector<SequentialProgram> Seq;
  std::vector<LoopProgram> Loop;
};

/// Builds the CHECK-SAT pair for \p A, a member of
/// \p Result.SygusAssumptions, in the round whose assumptions are
/// \p Result.Assumptions and whose alphabet is built from
/// \p ForAlphabet (Synthesizer::alphabetFormulas). The refinement step
/// and Synthesizer::firstRoundChecks both build their checks here.
RefinementCheck buildRefinementCheck(
    const Specification &Spec, Context &Ctx, const PipelineResult &Result,
    const GeneratedAssumption &A, AssumptionGenerator &Generator,
    const std::vector<const Formula *> &ForAlphabet) {
  // An "unhelpful" assumption (Alg. 4) is one whose update chain can
  // never be executed when its pre-condition holds, detected by the
  // unsatisfiability of phi && G(pre -> upd) && F pre. The F pre
  // conjunct makes the check consider executions where the
  // pre-condition actually occurs (Example 4.6 implicitly starts from
  // x = 0). The constraints phi are the plain conjunction Example 4.6
  // checks: environment assumptions, the given assumptions, the
  // guarantees.
  const Formula *Guarantee = Generator.refinementGuarantee(A);
  const Formula *Eventually = Ctx.Formulas.finallyF(A.PreFormula);
  auto Conjoin = [&](const std::vector<const Formula *> &Assumptions) {
    std::vector<const Formula *> Constraints;
    for (const Formula *SpecAssumption : Spec.Assumptions)
      Constraints.push_back(Ctx.Formulas.globally(SpecAssumption));
    Constraints.insert(Constraints.end(), Assumptions.begin(),
                       Assumptions.end());
    Constraints.push_back(Spec.guaranteeFormula(Ctx));
    return Ctx.Formulas.andF(
        {Ctx.Formulas.andF(std::move(Constraints)), Guarantee, Eventually});
  };
  RefinementCheck Check;
  Check.Core = Conjoin(Result.ConsistencyAssumptions);
  Check.Full = Conjoin(Result.Assumptions);
  std::vector<const Formula *> Extra = ForAlphabet;
  Extra.push_back(Check.Full);
  Check.AB = Alphabet::build(Spec, Ctx, Extra);
  return Check;
}

/// One refinement step of Alg. 4 after an unrealizable eager round:
/// replaces (or drops) the first unhelpful SyGuS assumption. Returns
/// false when every assumption is executable, or when \p Dl cut a
/// CHECK-SAT off (the run then ends Unknown with a Timeout record).
bool refineUnhelpful(const Specification &Spec, Context &Ctx,
                     AssumptionGenerator &Generator, PipelineResult &Result,
                     const std::vector<const Formula *> &ForAlphabet,
                     std::vector<Exclusions> &Excluded, const Deadline &Dl,
                     const TableauLimits &Limits) {
  for (size_t I = 0; I < Result.SygusAssumptions.size(); ++I) {
    GeneratedAssumption &A = Result.SygusAssumptions[I];
    std::optional<bool> Sat = decideRefinementCheck(
        buildRefinementCheck(Spec, Ctx, Result, A, Generator, ForAlphabet),
        Ctx, Dl, Limits);
    if (!Sat) {
      if (Dl.expired()) {
        Result.Status = Realizability::Unknown;
        Result.Stats.Failures.push_back({FailureKind::Timeout, "refinement",
                                         "deadline expired during CHECK-SAT"});
        return false;
      }
      // Undecided: without evidence that it is unhelpful, keep it.
      Result.Stats.Failures.push_back(
          {FailureKind::StateBudget, "refinement",
           "CHECK-SAT tableau budget exceeded; assumption kept"});
      continue;
    }
    if (*Sat)
      continue; // Helpful (executable) assumption: keep it.

    // Re-run SyGuS, excluding the unhelpful program.
    if (A.IsLoop)
      Excluded[I].Loop.push_back(A.Loop);
    else
      Excluded[I].Seq.push_back(A.Sequential);
    std::optional<GeneratedAssumption> Replacement;
    SygusStats Work;
    try {
      Replacement = Generator.generate(A.Ob, Excluded[I].Seq, Excluded[I].Loop,
                                       &Work);
    } catch (const DeadlineExpired &) {
      // Out of time mid-refinement: fall through to the drop path
      // (dropping only weakens psi, so the degraded run stays sound).
      Result.Stats.Failures.push_back(
          {FailureKind::Timeout, "sygus",
           "refinement re-synthesis timed out; assumption dropped"});
    }
    ++Result.Stats.Refinements;
    Result.Stats.SygusCandidates += Work.CandidatesTried;
    Result.Stats.SygusVerifierCalls += Work.VerifierCalls;
    if (Replacement) {
      A = std::move(*Replacement);
    } else {
      // No alternative program exists: drop the assumption (dropping
      // only weakens psi; soundness is preserved).
      Result.SygusAssumptions.erase(Result.SygusAssumptions.begin() + I);
      Excluded.erase(Excluded.begin() + I);
    }
    return true;
  }
  return false; // Every assumption is executable.
}

} // namespace

std::optional<bool> temos::decideRefinementCheck(const RefinementCheck &Check,
                                                 Context &Ctx,
                                                 const Deadline &Dl,
                                                 const TableauLimits &Limits) {
  std::optional<bool> CoreSat =
      isSatisfiable(Check.Core, Ctx, Check.AB, Dl, Limits);
  // An unsat core decides; an expired deadline would cut the full check
  // off too.
  if (CoreSat == false || (!CoreSat && Dl.expired()))
    return CoreSat;
  return isSatisfiable(Check.Full, Ctx, Check.AB, Dl, Limits);
}

std::vector<const Formula *>
Synthesizer::alphabetFormulas(const Specification &Spec,
                              const std::vector<const Formula *> &Assumptions) {
  std::vector<const Formula *> Out = Assumptions;
  Out.push_back(
      simplify(formulaWithAssumptions(Spec, Assumptions), Ctx.Formulas));
  return Out;
}

std::vector<RefinementCheck>
Synthesizer::firstRoundChecks(const Specification &Spec,
                              const PipelineOptions &Options,
                              PipelineResult &Result) {
  if (!generateAssumptions(Spec, Options, Result, Deadline()))
    return {};
  Result.Assumptions = Result.ConsistencyAssumptions;
  for (const GeneratedAssumption &A : Result.SygusAssumptions)
    Result.Assumptions.push_back(A.Assumption);
  const std::vector<const Formula *> ForAlphabet =
      alphabetFormulas(Spec, Result.Assumptions);
  AssumptionGenerator Generator(Spec, Ctx);
  std::vector<RefinementCheck> Checks;
  for (const GeneratedAssumption &A : Result.SygusAssumptions)
    Checks.push_back(
        buildRefinementCheck(Spec, Ctx, Result, A, Generator, ForAlphabet));
  return Checks;
}

bool Synthesizer::generateAssumptions(const Specification &Spec,
                                      const PipelineOptions &Options,
                                      PipelineResult &Result,
                                      const Deadline &Global) {
  Decomposition Decomp = decompose(Spec, Ctx, Options.Decomp);
  Result.Stats.SpecSize = specSize(Spec);
  Result.Stats.PredicateCount = Decomp.PredicateLiterals.size();
  Result.Stats.UpdateTermCount = Decomp.UpdateTerms.size();
  if (Result.Stats.PredicateCount > Alphabet::MaxPredicates) {
    Result.Status = Realizability::Unknown;
    Result.Stats.Failures.push_back(
        {FailureKind::StateBudget, "decomposition",
         std::to_string(Result.Stats.PredicateCount) +
             " predicate terms; the explicit alphabet holds at most " +
             std::to_string(Alphabet::MaxPredicates)});
    return false;
  }

  SolverService &Svc = ensureService(Spec.Th, Options);
  // The service deadline is (re)set at the start of every phase, so a
  // deadline left over from a previous phase or run can never leak into
  // this one's queries.
  Svc.setDeadline(Global);
  ConsistencyResult Consistency =
      checkConsistency(Decomp.PredicateLiterals, Spec.Th, Ctx,
                       Options.Consistency, &Svc, Global);
  Result.ConsistencyAssumptions = Consistency.Assumptions;
  Result.Stats.ConsistencyQueries = Consistency.SolverQueries;
  if (Consistency.DeadlineSkipped > 0)
    Result.Stats.Failures.push_back(
        {FailureKind::Timeout, "consistency",
         std::to_string(Consistency.DeadlineSkipped) +
             " literal combinations left unchecked; the emitted "
             "assumptions remain individually valid"});

  // SyGuS per obligation, in batches of the pool's parallelism.
  // Obligations are independent, so a batch fans out across the pool
  // (one AssumptionGenerator per task; the shared Context factories are
  // internally synchronized) and is then merged in obligation order.
  // The merge deduplicates on exact formula identity (hash-consing) and
  // on (update chain, post) pairs -- the same program/post with a
  // stronger pre-condition adds nothing -- and applies the caps, and
  // generation stops once the SyGuS cap is reached. The assumption list
  // is therefore identical for every NumThreads value, and a one-thread
  // run generates one obligation at a time and none past the cap.
  const std::vector<Obligation> &Obs = Decomp.Obligations;
  // The SyGuS budget starts ticking now; the total budget caps it.
  const Deadline SygusDl = Deadline::earlier(
      Global, Options.Budget.SygusSeconds > 0
                  ? Deadline::after(Options.Budget.SygusSeconds)
                  : Deadline());
  Svc.setDeadline(SygusDl);
  struct Outcome {
    std::optional<GeneratedAssumption> G;
    SygusStats Work;
    bool TimedOut = false;
  };
  // The spec-wide part of every query, built once for all obligations.
  const std::shared_ptr<const SygusGrammar> Grammar =
      SygusGrammar::build(Spec, Ctx);
  const size_t BatchSize = Svc.pool().parallelism();
  std::vector<Outcome> Batch;
  std::vector<const Formula *> SeenAssumptions;
  std::vector<std::pair<const Formula *, const Formula *>> SeenUpdPost;
  size_t LoopCount = 0;
  size_t TimedOutObligations = 0;
  auto CapReached = [&] {
    return Result.SygusAssumptions.size() >= Options.MaxSygusAssumptions;
  };
  for (size_t Begin = 0; Begin < Obs.size() && !CapReached();
       Begin += BatchSize) {
    Batch.assign(std::min(BatchSize, Obs.size() - Begin), Outcome());
    Svc.pool().forEach(Batch.size(), [&](size_t I) {
      AssumptionGenerator Worker(Spec, Ctx, Grammar);
      Worker.Opts = Options.Sygus;
      Worker.setService(&Svc);
      Worker.setDeadline(SygusDl);
      Worker.setSpinHangForTesting(Options.InjectSpinHang);
      // Deadline expiry mid-search marks this obligation unresolved and
      // lets every other task finish (or fail fast on the tripped
      // token); any other exception propagates through the pool's
      // capture + deterministic rethrow and unwinds the run.
      try {
        Batch[I].G = Worker.generate(Obs[Begin + I], {}, {}, &Batch[I].Work);
      } catch (const DeadlineExpired &) {
        Batch[I].TimedOut = true;
      }
    });
    for (size_t I = 0; I < Batch.size() && !CapReached(); ++I) {
      TimedOutObligations += Batch[I].TimedOut ? 1 : 0;
      Result.Stats.SygusCandidates += Batch[I].Work.CandidatesTried;
      Result.Stats.SygusVerifierCalls += Batch[I].Work.VerifierCalls;
      std::optional<GeneratedAssumption> &G = Batch[I].G;
      if (!G)
        continue;
      if (G->IsLoop && LoopCount >= MaxLoopAssumptions)
        continue;
      if (std::find(SeenAssumptions.begin(), SeenAssumptions.end(),
                    G->Assumption) != SeenAssumptions.end())
        continue;
      auto Pair = std::make_pair(G->UpdFormula, G->PostFormula);
      if (std::find(SeenUpdPost.begin(), SeenUpdPost.end(), Pair) !=
          SeenUpdPost.end())
        continue;
      SeenAssumptions.push_back(G->Assumption);
      SeenUpdPost.push_back(Pair);
      LoopCount += G->IsLoop ? 1 : 0;
      Result.SygusAssumptions.push_back(std::move(*G));
    }
  }
  if (TimedOutObligations > 0)
    Result.Stats.Failures.push_back(
        {FailureKind::Timeout, "sygus",
         std::to_string(TimedOutObligations) + " of " +
             std::to_string(Obs.size()) +
             " obligations unresolved (deadline expired mid-search)"});
  return true;
}

void Synthesizer::recordReactiveRun(PipelineResult &Result,
                                    const SynthesisResult &Reactive,
                                    bool Incremental) {
  PipelineStats &PS = Result.Stats;
  const SynthesisStats &S = Reactive.Stats;
  ++PS.ReactiveRuns;
  PS.GameStates = std::max(PS.GameStates, S.GameStates);
  if (S.NbaCacheHit)
    ++PS.NbaCacheHits;
  else if (Incremental)
    ++PS.NbaCacheMisses;
  PS.ExpansionCacheHits += S.ExpansionCacheHits;
  PS.ExpansionCacheMisses += S.ExpansionCacheMisses;
  PS.ReactiveDetail.push_back({S, Reactive.Status});
}

PipelineResult Synthesizer::runPipeline(const Specification &Spec,
                                        const PipelineOptions &Options) {
  PipelineResult Result;
  const Deadline Global = Options.Budget.TotalSeconds > 0
                              ? Deadline::after(Options.Budget.TotalSeconds)
                              : Deadline();
  SolverService &Svc = ensureService(Spec.Th, Options);
  const size_t Hits0 = Svc.hits();
  const size_t Misses0 = Svc.misses();
  Timer PsiTimer;

  // --- Decomposition, consistency checking, SyGuS (Secs. 4.1-4.3). -------
  const bool Decomposed = generateAssumptions(Spec, Options, Result, Global);
  Result.Stats.PsiGenSeconds = PsiTimer.seconds();
  Result.Stats.PsiGenCpuSeconds = PsiTimer.cpuSeconds();
  if (!Decomposed)
    return Result;

  // --- Reactive synthesis + refinement loop (Sec. 4.4, Alg. 4). ----------
  Timer SynthTimer;
  // The total budget covers the whole phase: every reactive invocation,
  // every CHECK-SAT and every refinement re-synthesis.
  Svc.setDeadline(Global);
  AssumptionGenerator Generator(Spec, Ctx);
  Generator.Opts = Options.Sygus;
  Generator.setService(&Svc);
  Generator.setDeadline(Global);
  std::vector<Exclusions> Excluded(Result.SygusAssumptions.size());

  // Eager mode (the paper's approach) synthesizes with every SyGuS
  // assumption and, when that is unrealizable, refines (Alg. 4) and
  // retries. Lazy mode (Sec. 5.2's alternative) starts from the
  // consistency assumptions alone and appends one SyGuS assumption per
  // unrealizable round. Round counts refinements (eager) or appended
  // assumptions (lazy).
  for (unsigned Round = 0;; ++Round) {
    const size_t SygusUsed =
        Options.Eager ? Result.SygusAssumptions.size() : Round;
    Result.Assumptions = Result.ConsistencyAssumptions;
    for (size_t I = 0; I < SygusUsed; ++I)
      Result.Assumptions.push_back(Result.SygusAssumptions[I].Assumption);
    Result.Stats.AssumptionCount = Result.Assumptions.size();

    const std::vector<const Formula *> ForAlphabet =
        alphabetFormulas(Spec, Result.Assumptions);
    const Formula *Phi = ForAlphabet.back();
    Result.AB = Alphabet::build(Spec, Ctx, ForAlphabet);

    SynthesisResult Reactive = Engine.synthesize(
        Phi, Ctx, Result.AB, Options.Reactive, &Svc.pool(), Global);
    recordReactiveRun(Result, Reactive, Options.Reactive.Incremental);
    Result.Status = Reactive.Status;
    if (Reactive.Status == Realizability::Realizable) {
      Result.Machine = std::move(Reactive.Machine);
      break;
    }
    if (Reactive.Status == Realizability::Unknown) {
      recordReactiveFailure(Result, Reactive);
      break;
    }
    // Eager refines before checking the round cap, so the last allowed
    // round's refinement step still runs and counts.
    if (Options.Eager) {
      if (!refineUnhelpful(Spec, Ctx, Generator, Result, ForAlphabet,
                           Excluded, Global, Options.Reactive.Tableau) ||
          Round >= Options.MaxRefinements)
        break;
    } else if (SygusUsed == Result.SygusAssumptions.size()) {
      break;
    }
  }

  Result.Stats.SynthesisSeconds = SynthTimer.seconds();
  Result.Stats.SynthesisCpuSeconds = SynthTimer.cpuSeconds();
  Result.Stats.CacheHits = Svc.hits() - Hits0;
  Result.Stats.CacheMisses = Svc.misses() - Misses0;
  return Result;
}
