//===- core/AssumptionGenerator.cpp - SyGuS->TSL translation ---------------===//

#include "core/AssumptionGenerator.h"

#include "logic/Traversal.h"

#include <algorithm>

using namespace temos;

std::shared_ptr<const SygusGrammar>
SygusGrammar::build(const Specification &Spec, Context &Ctx) {
  auto G = std::make_shared<SygusGrammar>();
  for (const Formula *U : collectUpdateTerms(Spec))
    G->Updates[U->cell()].push_back(U->updateValue());

  // Ambient facts: non-temporal predicate literals from the 'always
  // assume' block (e.g. weight > 0) strengthen the SyGuS semantic
  // constraint -- the encoded TSL assumption stays valid because the
  // environment assumption is conjoined globally in phi.
  for (const Formula *A : Spec.Assumptions) {
    const Formula *Nnf = Ctx.Formulas.toNNF(A);
    std::vector<const Formula *> Conjuncts =
        Nnf->is(Formula::Kind::And) ? Nnf->children()
                                    : std::vector<const Formula *>{Nnf};
    for (const Formula *C : Conjuncts) {
      TheoryLiteral L;
      if (C->is(Formula::Kind::Pred))
        L = {C->pred(), true};
      else if (C->is(Formula::Kind::Not) &&
               C->child(0)->is(Formula::Kind::Pred))
        L = {C->child(0)->pred(), false};
      else
        continue;
      bool Duplicate = false;
      for (const TheoryLiteral &Existing : G->Ambient)
        Duplicate |= Existing.Atom == L.Atom;
      if (!Duplicate)
        G->Ambient.push_back(L);
    }
  }
  return G;
}

SygusQuery AssumptionGenerator::buildQuery(const Obligation &Ob) const {
  SygusQuery Query;
  Query.Pre = Ob.Pre;
  Query.Post = Ob.Post;
  Query.Ambient = Grammar->Ambient;

  // Cells relevant to the obligation: updatable signals occurring in the
  // post-condition terms.
  std::vector<std::string> Relevant;
  for (const TheoryLiteral &L : Ob.Post) {
    std::vector<std::string> Names;
    collectSignals(L.Atom, Names);
    for (const std::string &Name : Names)
      if (Spec.isUpdatable(Name) &&
          std::find(Relevant.begin(), Relevant.end(), Name) == Relevant.end())
        Relevant.push_back(Name);
  }

  for (const std::string &Name : Relevant) {
    CellSpec Cell;
    Cell.Name = Name;
    Cell.S = *Spec.signalSort(Name);
    if (auto It = Grammar->Updates.find(Name); It != Grammar->Updates.end())
      Cell.Updates = It->second;
    // The chain grammar's terminal s_i (Sec. 4.3.1): the identity update
    // is always available (a cell not written keeps its value).
    const Term *Identity = Ctx.Terms.signal(Name, Cell.S);
    if (std::find(Cell.Updates.begin(), Cell.Updates.end(), Identity) ==
        Cell.Updates.end())
      Cell.Updates.push_back(Identity);
    Query.Cells.push_back(std::move(Cell));
  }
  return Query;
}

const Formula *AssumptionGenerator::literalConjunction(
    const std::vector<TheoryLiteral> &Ls) {
  std::vector<const Formula *> Parts;
  for (const TheoryLiteral &L : Ls) {
    const Formula *Atom = Ctx.Formulas.pred(L.Atom);
    Parts.push_back(L.Positive ? Atom : Ctx.Formulas.notF(Atom));
  }
  return Ctx.Formulas.andF(std::move(Parts));
}

const Formula *AssumptionGenerator::stepConjunction(const StepChoice &Step) {
  std::vector<const Formula *> Parts;
  for (const auto &[Cell, Rhs] : Step)
    Parts.push_back(Ctx.Formulas.update(Cell, Rhs));
  return Ctx.Formulas.andF(std::move(Parts));
}

GeneratedAssumption
AssumptionGenerator::encodeSequential(const Obligation &Ob,
                                      const SequentialProgram &Program) {
  GeneratedAssumption Result;
  Result.Ob = Ob;
  Result.Sequential = Program;
  Result.PreFormula = literalConjunction(Ob.Pre);
  Result.PostFormula = Ctx.Formulas.nextN(
      literalConjunction(Ob.Post),
      static_cast<unsigned>(Program.Steps.size()));

  // Algorithm 2: upd = upd_0 && X upd_1 && ... && X^(n-1) upd_(n-1).
  std::vector<const Formula *> Chain;
  for (size_t J = 0; J < Program.Steps.size(); ++J)
    Chain.push_back(Ctx.Formulas.nextN(stepConjunction(Program.Steps[J]),
                                       static_cast<unsigned>(J)));
  Result.UpdFormula = Ctx.Formulas.andF(std::move(Chain));

  Result.Assumption = Ctx.Formulas.globally(Ctx.Formulas.implies(
      Ctx.Formulas.andF(Result.PreFormula, Result.UpdFormula),
      Result.PostFormula));
  return Result;
}

GeneratedAssumption AssumptionGenerator::encodeLoop(const Obligation &Ob,
                                                    const LoopProgram &Program) {
  assert(Program.Body.size() == 1 &&
         "only single-step loop bodies are encoded as assumptions");
  GeneratedAssumption Result;
  Result.Ob = Ob;
  Result.IsLoop = true;
  Result.Loop = Program;
  Result.PreFormula = literalConjunction(Ob.Pre);
  const Formula *Post = literalConjunction(Ob.Post);
  Result.PostFormula = Ctx.Formulas.finallyF(Post);
  const Formula *Body = stepConjunction(Program.Body[0]);
  // Algorithm 3: G (pre && (upd W post) -> F post).
  Result.UpdFormula = Ctx.Formulas.weakUntil(Body, Post);
  Result.Assumption = Ctx.Formulas.globally(Ctx.Formulas.implies(
      Ctx.Formulas.andF(Result.PreFormula, Result.UpdFormula),
      Result.PostFormula));
  return Result;
}

std::optional<GeneratedAssumption> AssumptionGenerator::generate(
    const Obligation &Ob, const std::vector<SequentialProgram> &ExcludedSeq,
    const std::vector<LoopProgram> &ExcludedLoop, SygusStats *Stats) {
  SygusQuery Query = buildQuery(Ob);
  if (Query.Cells.empty())
    return std::nullopt; // Nothing updatable: no data transformation.
  const CompiledQuery Space = Solver.searchSpace(Query);

  if (Ob.K == Obligation::Kind::Exact) {
    auto Program =
        Solver.synthesizeSequential(Space, Ob.Steps, ExcludedSeq, Stats);
    if (!Program)
      return std::nullopt;
    return encodeSequential(Ob, *Program);
  }

  // Reachability: prefer short sequential witnesses (the intro example's
  // two increments), then fall back to loops (Example 4.5).
  if (auto Program = Solver.synthesizeSequentialUpTo(
          Space, Opts.MaxSequentialSteps, ExcludedSeq, Stats))
    return encodeSequential(Ob, *Program);
  if (auto Program = Solver.synthesizeLoop(Space, ExcludedLoop, Stats))
    return encodeLoop(Ob, *Program);
  return std::nullopt;
}

const Formula *
AssumptionGenerator::refinementGuarantee(const GeneratedAssumption &A) {
  // Alg. 4: the assumption is "unhelpful" if committing to its update
  // chain whenever the pre-condition holds contradicts the rest of the
  // specification: guarantee = G (pre -> upd).
  return Ctx.Formulas.globally(
      Ctx.Formulas.implies(A.PreFormula, A.UpdFormula));
}
