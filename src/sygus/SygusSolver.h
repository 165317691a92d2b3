//===- sygus/SygusSolver.h - Enumerative SyGuS engine ----------*- C++ -*-===//
///
/// \file
/// The SyGuS half of the temos pipeline (Sec. 4.3). Given a data
/// transformation obligation -- pre-condition literals, post-condition
/// literals, and the update terms available per cell -- the solver
/// searches for:
///
///  * a SequentialProgram of an exact number of steps whose final state
///    provably satisfies the post-condition whenever the initial state
///    satisfies the pre-condition (Sec. 4.3.1) -- candidates are
///    enumerated by the paper's chain grammar and verified with the SMT
///    layer (validity of pre -> post[final]), or
///  * a LoopProgram (Sec. 4.3.2) via the paper's recursion wrapper
///    (Sec. 5.1): instantiate models of the pre-condition, synthesize
///    straight-line witnesses per model, and extract the repeated
///    fragment as the loop body, validated by bounded iteration on every
///    sample.
///
/// A query is compiled once (searchSpace) into a CompiledQuery: signals
/// numbered into slots, a step choice as one option index per cell,
/// samples as slot vectors, and the verification conditions' (VCs')
/// candidate-independent part built up front. The odometer that
/// enumerates candidates keeps one frame per depth -- each sample's
/// concrete cell values, the symbolic cell terms and the VC conjuncts up
/// to that depth -- so advancing position p recomputes only the depths
/// after p. A VC is the same interned formula, conjunct for conjunct, as
/// one built from scratch, so the solver service's cache sees the same
/// keys.
///
/// The refinement loop (Sec. 4.4 / Alg. 4) re-invokes the solver with an
/// exclusion list to obtain a *different* program for the same
/// obligation.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_SYGUS_SYGUSSOLVER_H
#define TEMOS_SYGUS_SYGUSSOLVER_H

#include "logic/Specification.h"
#include "sygus/Program.h"
#include "theory/SmtSolver.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

namespace temos {

/// A cell that data transformation programs may write, with the update
/// right-hand sides the specification makes available for it.
struct CellSpec {
  std::string Name;
  Sort S = Sort::Int;
  std::vector<const Term *> Updates;
};

/// A SyGuS query extracted from a data transformation obligation.
struct SygusQuery {
  std::vector<TheoryLiteral> Pre;
  std::vector<TheoryLiteral> Post;
  /// Ambient facts that hold at EVERY time step (non-temporal literals
  /// from the spec's 'always assume' block, e.g. weight > 0 or input
  /// bounds). Unlike Pre, these are re-instantiated for the fresh input
  /// copies of later steps during verification.
  std::vector<TheoryLiteral> Ambient;
  std::vector<CellSpec> Cells;
};

/// A SyGuS query compiled for search; what every strategy for the query
/// reads. Built once per query by SygusSolver::searchSpace and used by
/// one thread at a time.
struct CompiledQuery {
  /// The signal node of each slot: the cells first, in query order,
  /// then every other signal of the pre, post, ambient and update terms
  /// in first-occurrence order. Slots [CellCount, size) are the
  /// environment inputs.
  std::vector<const Term *> Slots;
  size_t CellCount = 0;
  /// Per cell, its update options (the query's, or the identity when it
  /// declares none).
  std::vector<std::vector<const Term *>> Options;
  /// The step choices of the chain grammar, the cartesian product of the
  /// cells' options with the last cell varying fastest: choice k is the
  /// option indices Choices[k * CellCount, (k + 1) * CellCount).
  std::vector<uint32_t> Choices;
  size_t ChoiceCount = 0;
  std::vector<TheoryLiteral> Pre;
  std::vector<TheoryLiteral> Post;
  std::vector<TheoryLiteral> Ambient;
  /// Pre-condition samples, one value per slot (nullopt: unassigned).
  std::vector<std::vector<std::optional<Value>>> Samples;
  /// The candidate-independent part of every VC: the pre-condition
  /// literals, then the ambient literals at step 0.
  std::vector<const Formula *> VcPrefix;
  /// Per step j >= 1, at Havocked[j - 1]: the inputs' copies x#j, in
  /// slot order, and each term's copy reading them. Grows as deeper
  /// steps are asked for.
  struct HavocStep {
    std::vector<const Term *> Inputs;
    std::unordered_map<const Term *, const Term *> Copies;
  };
  mutable std::vector<HavocStep> Havocked;

  /// The slot of signal \p S, or Slots.size() when it has none.
  size_t slotOf(const Term *S) const {
    return std::find(Slots.begin(), Slots.end(), S) - Slots.begin();
  }
  /// Choice \p K's right-hand side for cell \p C.
  const Term *option(size_t K, size_t C) const {
    return Options[C][Choices[K * CellCount + C]];
  }
  /// The program step of choice \p K.
  StepChoice step(size_t K) const;
};

/// Statistics of one synthesis call.
struct SygusStats {
  size_t CandidatesTried = 0;
  size_t VerifierCalls = 0;
};

class SolverService;

/// Enumerative SyGuS solver with SMT-backed verification.
class SygusSolver {
public:
  SygusSolver(Context &Ctx, Theory Th) : Ctx(Ctx), Solver(Th) {}

  /// Routes verdict-only SMT checks through \p Service so repeated
  /// verification conditions hit its query cache (shared across
  /// workers and across pipeline runs). Model-producing queries keep
  /// using the private solver. Null restores the direct path.
  void setService(SolverService *S) { Service = S; }

  /// Tunables.
  struct Options {
    /// Fault injection (temos --inject-fault=spin-hang): the sequential
    /// enumeration never terminates -- verified candidates are withheld
    /// and the odometer wraps around forever -- so only a cooperative
    /// deadline can stop it. Exists to prove the deadline machinery
    /// trips; never set in production.
    bool SpinHangForTesting = false;
  };
  Options Opts;

  /// Attaches a cooperative deadline, shared with the private SMT
  /// solver: enumeration rounds poll it and throw DeadlineExpired when
  /// the budget is gone. Default Deadline detaches.
  void setDeadline(const Deadline &D) {
    Dl = D;
    Solver.setDeadline(D);
  }

  /// Compiles \p Query for the synthesize calls below, its pre-condition
  /// samples included; one query's strategies share one.
  CompiledQuery searchSpace(const SygusQuery &Query);

  /// Synthesizes a sequential program of exactly \p Steps steps (the
  /// temporal constraint of Sec. 4.3.1). Programs in \p Excluded are
  /// skipped (refinement). Returns nullopt if no candidate verifies.
  std::optional<SequentialProgram>
  synthesizeSequential(const CompiledQuery &Space, unsigned Steps,
                       const std::vector<SequentialProgram> &Excluded = {},
                       SygusStats *Stats = nullptr);

  /// Synthesizes a sequential program of any length 1..\p MaxSteps
  /// (shortest first), for F-obligations solvable without loops.
  std::optional<SequentialProgram>
  synthesizeSequentialUpTo(const CompiledQuery &Space, unsigned MaxSteps,
                           const std::vector<SequentialProgram> &Excluded = {},
                           SygusStats *Stats = nullptr);

  /// Synthesizes a loop program for a reachability (F) obligation via
  /// the recursion wrapper.
  std::optional<LoopProgram>
  synthesizeLoop(const CompiledQuery &Space,
                 const std::vector<LoopProgram> &Excluded = {},
                 SygusStats *Stats = nullptr);

  /// Verifies a sequential candidate: validity of pre -> post[final].
  /// Environment inputs (signals that are not cells) are havocked per
  /// step: step j reads fresh input copies, so the program must work for
  /// every input evolution, not just a rigid one. Exposed for tests and
  /// the assumption generator.
  bool verifySequential(const SygusQuery &Query,
                        const SequentialProgram &Program);

  /// Soundness check for loop bodies (makes Theorem 4.4's premise
  /// real): accepts the body only if a linear ranking argument proves
  /// that iterating it reaches the post-condition from every
  /// pre-condition state, for every input evolution. Two tiers:
  /// (1) global progress -- from any !post state the post-gap shrinks
  /// by >= 1; (2) pre-invariant progress -- pre is inductive (modulo
  /// reaching post) and the gap shrinks under it. Exposed for tests.
  bool verifyLoopRanking(const SygusQuery &Query,
                         const std::vector<StepChoice> &Body);

  /// Sample assignments satisfying the pre-condition (SMT model plus
  /// perturbations). Exposed for tests.
  std::vector<Assignment> samplePreModels(const SygusQuery &Query);

private:
  /// \p Query's slots, options, choices and VC prefix; no samples. The
  /// signals of \p Extra's right-hand sides get slots too.
  CompiledQuery compile(const SygusQuery &Query,
                        const std::vector<StepChoice> &Extra = {});
  /// verifyLoopRanking on a compiled query.
  bool verifyLoopRanking(const CompiledQuery &Space,
                         const std::vector<StepChoice> &Body);
  /// Verdict-only satisfiability, via the service's cache when one is
  /// attached.
  SatResult checkSat(const Formula *F);

  class PrefixStack;

  Context &Ctx;
  SmtSolver Solver;
  SolverService *Service = nullptr;
  Evaluator Eval;
  Deadline Dl;
};

} // namespace temos

#endif // TEMOS_SYGUS_SYGUSSOLVER_H
