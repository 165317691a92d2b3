//===- core/AssumptionGenerator.h - SyGuS->TSL translation -----*- C++ -*-===//
///
/// \file
/// Bridges SyGuS results back into TSL (Sec. 4.3, Algorithms 2 and 3,
/// Theorems 4.1/4.4): a data transformation obligation is turned into a
/// SyGuS query over the update terms the specification offers; the
/// synthesized program is unrolled into a chain of update atoms with X
/// prefixes (sequential) or a W-encoded loop body, producing the valid
/// TSL assumption
///
///   G (pre && upd_0 && X upd_1 && ... -> X^n post)          (Alg. 2)
///   G (pre && (upd W post) -> F post)                        (Alg. 3)
///
/// that weakens the TSL underapproximation just enough for reactive
/// synthesis to exploit the theory semantics.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_CORE_ASSUMPTIONGENERATOR_H
#define TEMOS_CORE_ASSUMPTIONGENERATOR_H

#include "core/Decomposition.h"
#include "sygus/SygusSolver.h"

#include <memory>
#include <optional>
#include <unordered_map>

namespace temos {

/// One generated assumption, with the pieces the refinement loop
/// (Alg. 4) needs: the (pre, upd, post) split and the originating
/// obligation/program so SyGuS can be re-run with exclusions.
struct GeneratedAssumption {
  /// The full G(pre && upd -> post') formula added to the spec.
  const Formula *Assumption = nullptr;
  /// Conjunction of pre-condition literals.
  const Formula *PreFormula = nullptr;
  /// The update chain (with X prefixes) or loop body conjunction.
  const Formula *UpdFormula = nullptr;
  /// X^n post or F post.
  const Formula *PostFormula = nullptr;

  Obligation Ob;
  bool IsLoop = false;
  SequentialProgram Sequential;
  LoopProgram Loop;
};

/// The spec-wide part of every SyGuS query of one specification: the
/// update right-hand sides per cell (the chain grammar's F set, Sec.
/// 4.3.1) and the ambient literals. Read-only once built, so the
/// generators of one run share one.
struct SygusGrammar {
  /// Cell name -> the spec's update right-hand sides for it, in spec
  /// order.
  std::unordered_map<std::string, std::vector<const Term *>> Updates;
  /// Non-temporal predicate literals of the 'always assume' block.
  std::vector<TheoryLiteral> Ambient;

  static std::shared_ptr<const SygusGrammar> build(const Specification &Spec,
                                                   Context &Ctx);
};

/// Generates TSL assumptions from obligations via SyGuS.
///
/// The pipeline builds the grammar once per run and one generator per
/// obligation task: generators share the grammar and the Context (whose
/// factories are internally synchronized) but nothing else, and
/// obligations are independent, so concurrent generate() calls on
/// distinct instances are safe.
class AssumptionGenerator {
public:
  /// A generator with its own grammar of \p Spec.
  AssumptionGenerator(const Specification &Spec, Context &Ctx)
      : AssumptionGenerator(Spec, Ctx, SygusGrammar::build(Spec, Ctx)) {}
  /// A generator sharing \p Grammar, built from \p Spec.
  AssumptionGenerator(const Specification &Spec, Context &Ctx,
                      std::shared_ptr<const SygusGrammar> Grammar)
      : Spec(Spec), Ctx(Ctx), Grammar(std::move(Grammar)),
        Solver(Ctx, Spec.Th) {}

  /// Routes the inner SyGuS verifier's verdict-only SMT checks through
  /// \p Service (shared query cache across workers and runs).
  void setService(SolverService *S) { Solver.setService(S); }

  /// Attaches a cooperative deadline to the inner SyGuS solver (and its
  /// private SMT solver); generate() throws DeadlineExpired mid-search
  /// when it trips.
  void setDeadline(const Deadline &D) { Solver.setDeadline(D); }

  /// Fault injection passthrough: makes the inner enumeration
  /// deliberately non-terminating (see SygusSolver::Options).
  void setSpinHangForTesting(bool On) { Solver.Opts.SpinHangForTesting = On; }

  struct Options {
    /// Sequential search depth for reachability obligations before
    /// falling back to loop synthesis.
    unsigned MaxSequentialSteps = 3;
  };
  Options Opts;

  /// Builds the SyGuS query for \p Ob: semantic constraints from the
  /// obligation, syntactic constraints (the chain grammar) from the
  /// update terms the spec makes available for the post-condition's
  /// cells (Sec. 4.3.1).
  SygusQuery buildQuery(const Obligation &Ob) const;

  /// Runs SyGuS on \p Ob and encodes the result. Programs in the
  /// exclusion lists are skipped (refinement, Alg. 4). Returns nullopt
  /// when no program verifies.
  std::optional<GeneratedAssumption>
  generate(const Obligation &Ob,
           const std::vector<SequentialProgram> &ExcludedSeq = {},
           const std::vector<LoopProgram> &ExcludedLoop = {},
           SygusStats *Stats = nullptr);

  /// Encodes a sequential program as a TSL assumption (Algorithm 2).
  GeneratedAssumption encodeSequential(const Obligation &Ob,
                                       const SequentialProgram &Program);
  /// Encodes a loop program as a TSL assumption (Algorithm 3).
  GeneratedAssumption encodeLoop(const Obligation &Ob,
                                 const LoopProgram &Program);

  /// The refinement guarantee G(pre -> upd) used to identify
  /// "unhelpful" assumptions (Alg. 4).
  const Formula *refinementGuarantee(const GeneratedAssumption &A);

private:
  const Formula *literalConjunction(const std::vector<TheoryLiteral> &Ls);
  const Formula *stepConjunction(const StepChoice &Step);

  const Specification &Spec;
  Context &Ctx;
  std::shared_ptr<const SygusGrammar> Grammar;
  SygusSolver Solver;
};

} // namespace temos

#endif // TEMOS_CORE_ASSUMPTIONGENERATOR_H
