//===- sygus/SygusSolver.cpp - Enumerative SyGuS engine --------------------===//

#include "sygus/SygusSolver.h"

#include "theory/SolverService.h"

#include <algorithm>
#include <span>

using namespace temos;

namespace {

/// Appends the signal nodes of \p T missing from \p Out, in
/// first-occurrence order.
void addSignals(const Term *T, std::vector<const Term *> &Out) {
  if (T->isSignal()) {
    if (std::find(Out.begin(), Out.end(), T) == Out.end())
      Out.push_back(T);
    return;
  }
  for (const Term *Arg : T->args())
    addSignals(Arg, Out);
}

/// Pre-condition samples used for screening and the loop wrapper.
constexpr size_t MaxSamples = 4;
/// Iteration budget when validating loop bodies on samples.
constexpr unsigned MaxLoopIterations = 64;

Value defaultValue(Sort S) {
  switch (S) {
  case Sort::Bool:
    return Value::boolean(false);
  case Sort::Int:
  case Sort::Real:
    return Value::integer(0);
  case Sort::Opaque:
    return Value::symbol("@default");
  }
  return Value::integer(0);
}

/// The environment inputs of \p Q: the slots after the cells.
std::span<const Term *const> inputsOf(const CompiledQuery &Q) {
  return {Q.Slots.data() + Q.CellCount, Q.Slots.size() - Q.CellCount};
}

/// A copy x + \p Suffix of each input x of \p Q, in slot order.
std::vector<const Term *> inputCopies(TermFactory &TF, const CompiledQuery &Q,
                                      const std::string &Suffix) {
  std::vector<const Term *> Out;
  for (const Term *S : inputsOf(Q))
    Out.push_back(TF.signal(S->name() + Suffix, S->sort()));
  return Out;
}

/// \p T with every cell signal replaced by its term in \p State, all at
/// once (a parallel update reads the pre-step state).
const Term *atState(TermFactory &TF, const CompiledQuery &Q, const Term *T,
                    const std::vector<const Term *> &State) {
  return TF.substitute(T, {Q.Slots.data(), Q.CellCount}, State);
}

/// \p T reading the step-\p J inputs x#J: the environment may change
/// them between steps, so the program must work for every input
/// evolution. Step 0 keeps the original names (the pre-condition and
/// the step-0 updates read the same instant). Each (term, step) copy is
/// built once per query.
const Term *havoc(TermFactory &TF, const CompiledQuery &Q, const Term *T,
                  size_t J) {
  if (J == 0)
    return T;
  if (Q.Havocked.size() < J)
    Q.Havocked.resize(J);
  CompiledQuery::HavocStep &Step = Q.Havocked[J - 1];
  if (Step.Inputs.size() != inputsOf(Q).size())
    Step.Inputs = inputCopies(TF, Q, "#" + std::to_string(J));
  auto [It, Inserted] = Step.Copies.try_emplace(T, nullptr);
  if (Inserted)
    It->second = TF.substitute(T, inputsOf(Q), Step.Inputs);
  return It->second;
}

const Formula *literal(FormulaFactory &FF, const TheoryLiteral &L,
                       const Term *Atom) {
  const Formula *F = FF.pred(Atom);
  return L.Positive ? F : FF.notF(F);
}

/// Concrete cell values at one depth of one sample's run; Ok is false
/// once some update failed to evaluate on the way there.
struct ConcreteFrame {
  bool Ok = true;
  std::vector<std::optional<Value>> Cells;
};

/// Reads a signal at \p Frame of a run from \p Sample: cells from the
/// frame, inputs from the sample (screening keeps inputs fixed).
auto slotReader(const CompiledQuery &Q,
                const std::vector<std::optional<Value>> &Sample,
                const ConcreteFrame &Frame) {
  return [&Q, &Sample, &Frame](const Term *S) -> const Value * {
    size_t Slot = Q.slotOf(S);
    const std::optional<Value> *V = Slot < Q.CellCount ? &Frame.Cells[Slot]
                                    : Slot < Q.Slots.size() ? &Sample[Slot]
                                                            : nullptr;
    return V && *V ? &**V : nullptr;
  };
}

/// Applies the parallel update \p Rhs (one term per cell) to \p From,
/// writing \p To.
void stepConcrete(const CompiledQuery &Q,
                  const std::vector<std::optional<Value>> &Sample,
                  const ConcreteFrame &From, const Term *const *Rhs,
                  ConcreteFrame &To) {
  To.Ok = From.Ok;
  To.Cells.resize(Q.CellCount);
  auto Read = slotReader(Q, Sample, From);
  for (size_t C = 0; C < Q.CellCount && To.Ok; ++C) {
    auto V = Evaluator::evaluateWith(Rhs[C], Read);
    if (V)
      To.Cells[C] = std::move(*V);
    else
      To.Ok = false;
  }
}

/// Three-valued concrete post-condition check: nullopt when some literal
/// cannot be evaluated concretely (e.g. uninterpreted predicates) and
/// none is false -- such samples neither screen nor accept.
std::optional<bool> postHolds(const CompiledQuery &Q,
                              const std::vector<std::optional<Value>> &Sample,
                              const ConcreteFrame &Frame) {
  auto Read = slotReader(Q, Sample, Frame);
  bool SawUnknown = false;
  for (const TheoryLiteral &L : Q.Post) {
    auto V = Evaluator::evaluateBoolWith(L.Atom, Read);
    if (!V) {
      SawUnknown = true;
      continue;
    }
    if (*V != L.Positive)
      return false;
  }
  if (SawUnknown)
    return std::nullopt;
  return true;
}

/// The frame of \p Sample before any step.
ConcreteFrame initialFrame(const CompiledQuery &Q,
                           const std::vector<std::optional<Value>> &Sample) {
  ConcreteFrame F;
  F.Cells.assign(Sample.begin(), Sample.begin() + Q.CellCount);
  return F;
}

/// \p Program's steps as one right-hand side per (step, cell), null for
/// a step that no choice of \p Q can equal (refinement exclusions).
std::vector<const Term *> exclusionTerms(const CompiledQuery &Q,
                                         const std::vector<StepChoice> &Steps) {
  std::vector<const Term *> Out;
  for (const StepChoice &Step : Steps)
    for (size_t C = 0; C < Q.CellCount; ++C) {
      auto It = Step.find(Q.Slots[C]->name());
      Out.push_back(Step.size() == Q.CellCount && It != Step.end() ? It->second
                                                                  : nullptr);
    }
  return Out;
}

} // namespace

StepChoice CompiledQuery::step(size_t K) const {
  StepChoice Step;
  for (size_t C = 0; C < CellCount; ++C)
    Step[Slots[C]->name()] = option(K, C);
  return Step;
}

/// The odometer's per-depth state for programs of one length: depth d
/// holds what the first d steps produce -- each sample's concrete cells
/// (screening) and the symbolic cells and VC conjuncts (verification).
/// Rhs holds one right-hand side per (step, cell); choosing step p's
/// marks the depths after p stale, and they are recomputed only when
/// read.
class SygusSolver::PrefixStack {
public:
  PrefixStack(SygusSolver &S, const CompiledQuery &Q, unsigned Steps)
      : S(S), Q(Q), Steps(Steps), Rhs(Steps * Q.CellCount),
        Concrete(Q.Samples.size(), std::vector<ConcreteFrame>(Steps + 1)),
        ConcreteValid(Q.Samples.size(), 1), Symbolic(Steps + 1),
        PartsEnd(Steps + 1), Parts(Q.VcPrefix) {
    for (size_t I = 0; I < Q.Samples.size(); ++I)
      Concrete[I][0] = initialFrame(Q, Q.Samples[I]);
    Symbolic[0].assign(Q.Slots.begin(), Q.Slots.begin() + Q.CellCount);
    PartsEnd[0] = Parts.size();
  }

  /// The right-hand sides of step \p Step, one per cell.
  const Term **step(size_t Step) { return Rhs.data() + Step * Q.CellCount; }

  /// Makes step \p Step choice \p K; the depths after it go stale.
  void choose(size_t Step, size_t K) {
    for (size_t C = 0; C < Q.CellCount; ++C)
      step(Step)[C] = Q.option(K, C);
    for (size_t &Valid : ConcreteValid)
      Valid = std::min(Valid, Step + 1);
    SymbolicValid = std::min(SymbolicValid, Step + 1);
  }

  /// True when some sample's run definitely misses the post-condition.
  bool screened() {
    for (size_t I = 0; I < Q.Samples.size(); ++I) {
      std::vector<ConcreteFrame> &Frames = Concrete[I];
      for (size_t &D = ConcreteValid[I]; D <= Steps; ++D)
        stepConcrete(Q, Q.Samples[I], Frames[D - 1], step(D - 1), Frames[D]);
      if (Frames[Steps].Ok &&
          postHolds(Q, Q.Samples[I], Frames[Steps]) ==
              std::optional<bool>(false))
        return true;
    }
    return false;
  }

  /// Validity of pre -> post[final], asked as the unsatisfiability of
  /// pre && ambient facts at every step && !post at the last.
  bool verified() {
    TermFactory &TF = S.Ctx.Terms;
    FormulaFactory &FF = S.Ctx.Formulas;
    for (size_t &D = SymbolicValid; D <= Steps; ++D) {
      // Step D - 1 applied to the symbolic cells, then the ambient facts
      // on the new cells and the step-D input copies.
      const Term *const *StepRhs = step(D - 1);
      std::vector<const Term *> &Cells = Symbolic[D];
      Cells.resize(Q.CellCount);
      for (size_t C = 0; C < Q.CellCount; ++C)
        Cells[C] = atState(TF, Q, havoc(TF, Q, StepRhs[C], D - 1),
                           Symbolic[D - 1]);
      Parts.resize(PartsEnd[D - 1]);
      for (const TheoryLiteral &L : Q.Ambient)
        Parts.push_back(
            literal(FF, L, atState(TF, Q, havoc(TF, Q, L.Atom, D), Cells)));
      PartsEnd[D] = Parts.size();
    }
    // The negated post-condition on the final cells and input copy.
    std::vector<const Formula *> NegPost;
    for (const TheoryLiteral &L : Q.Post) {
      const Formula *F = FF.pred(
          atState(TF, Q, havoc(TF, Q, L.Atom, Steps), Symbolic[Steps]));
      NegPost.push_back(L.Positive ? FF.notF(F) : F);
    }
    std::vector<const Formula *> Vc(Parts.begin(),
                                    Parts.begin() + PartsEnd[Steps]);
    Vc.push_back(FF.orF(std::move(NegPost)));
    return S.checkSat(FF.andF(std::move(Vc))) == SatResult::Unsat;
  }

private:
  SygusSolver &S;
  const CompiledQuery &Q;
  const size_t Steps;
  std::vector<const Term *> Rhs;
  /// Concrete[i][d]: sample i after d steps; depths below
  /// ConcreteValid[i] are current.
  std::vector<std::vector<ConcreteFrame>> Concrete;
  std::vector<size_t> ConcreteValid;
  /// Symbolic[d]: the cells after d steps; Parts[0, PartsEnd[d]): the VC
  /// conjuncts through depth d. Depths below SymbolicValid are current.
  std::vector<std::vector<const Term *>> Symbolic;
  std::vector<size_t> PartsEnd;
  std::vector<const Formula *> Parts;
  size_t SymbolicValid = 1;
};

CompiledQuery SygusSolver::compile(const SygusQuery &Query,
                                   const std::vector<StepChoice> &Extra) {
  CompiledQuery Q;
  Q.Pre = Query.Pre;
  Q.Post = Query.Post;
  Q.Ambient = Query.Ambient;
  Q.CellCount = Query.Cells.size();
  // Cells with no declared updates implicitly self-update (TSL
  // semantics).
  for (const CellSpec &Cell : Query.Cells) {
    Q.Slots.push_back(Ctx.Terms.signal(Cell.Name, Cell.S));
    Q.Options.push_back(Cell.Updates.empty()
                            ? std::vector<const Term *>{Q.Slots.back()}
                            : Cell.Updates);
  }
  for (const std::vector<TheoryLiteral> *Ls : {&Q.Pre, &Q.Post, &Q.Ambient})
    for (const TheoryLiteral &L : *Ls)
      addSignals(L.Atom, Q.Slots);
  for (const std::vector<const Term *> &Options : Q.Options)
    for (const Term *U : Options)
      addSignals(U, Q.Slots);
  for (const StepChoice &Step : Extra)
    for (const auto &[Cell, Rhs] : Step)
      addSignals(Rhs, Q.Slots);

  // The chain grammar's per-step choices: the cartesian product of the
  // cells' options, the last cell varying fastest.
  Q.ChoiceCount = 1;
  for (const std::vector<const Term *> &Options : Q.Options)
    Q.ChoiceCount *= Options.size();
  Q.Choices.resize(Q.ChoiceCount * Q.CellCount);
  for (size_t K = 0; K < Q.ChoiceCount; ++K) {
    size_t Rest = K;
    for (size_t C = Q.CellCount; C-- > 0;) {
      Q.Choices[K * Q.CellCount + C] =
          static_cast<uint32_t>(Rest % Q.Options[C].size());
      Rest /= Q.Options[C].size();
    }
  }

  // The pre-condition and the ambient facts at step 0 (on the initial
  // cells and inputs) open every VC.
  for (const TheoryLiteral &L : Q.Pre)
    Q.VcPrefix.push_back(literal(Ctx.Formulas, L, L.Atom));
  for (const TheoryLiteral &L : Q.Ambient)
    Q.VcPrefix.push_back(literal(Ctx.Formulas, L, L.Atom));
  return Q;
}

CompiledQuery SygusSolver::searchSpace(const SygusQuery &Query) {
  CompiledQuery Q = compile(Query);
  for (const Assignment &Sample : samplePreModels(Query)) {
    std::vector<std::optional<Value>> Slots(Q.Slots.size());
    for (size_t I = 0; I < Q.Slots.size(); ++I)
      if (auto It = Sample.find(Q.Slots[I]->name()); It != Sample.end())
        Slots[I] = It->second;
    Q.Samples.push_back(std::move(Slots));
  }
  return Q;
}

std::vector<Assignment> SygusSolver::samplePreModels(const SygusQuery &Query) {
  // Every signal of the pre, post and update terms gets a value.
  std::vector<const Term *> Signals;
  for (const std::vector<TheoryLiteral> *Ls : {&Query.Pre, &Query.Post})
    for (const TheoryLiteral &L : *Ls)
      addSignals(L.Atom, Signals);
  for (const CellSpec &Cell : Query.Cells)
    for (const Term *U : Cell.Updates)
      addSignals(U, Signals);

  std::vector<Assignment> Samples;
  Assignment Base;
  std::vector<TheoryLiteral> Constraints = Query.Pre;
  Constraints.insert(Constraints.end(), Query.Ambient.begin(),
                     Query.Ambient.end());
  SatResult R = Solver.checkLiterals(Constraints, &Base);
  if (R != SatResult::Sat)
    return Samples;

  // Fill in signals the model omitted.
  for (const Term *S : Signals)
    if (!Base.count(S->name()))
      Base[S->name()] = defaultValue(S->sort());
  Samples.push_back(Base);

  // Perturb numeric signals and keep variants that still satisfy the
  // pre-condition (cheap model diversity without extra solver calls).
  static const int64_t Offsets[] = {1, -1, 3, 7, -5};
  for (int64_t Offset : Offsets) {
    if (Samples.size() >= MaxSamples)
      break;
    Assignment Variant = Base;
    for (auto &[Name, V] : Variant)
      if (V.isNumber())
        V = Value::number(V.getNumber() + Rational(Offset));
    bool SatisfiesPre = true;
    for (const TheoryLiteral &L : Constraints) {
      auto B = Eval.evaluateBool(L.Atom, Variant);
      if (!B || *B != L.Positive) {
        SatisfiesPre = false;
        break;
      }
    }
    if (SatisfiesPre && std::find(Samples.begin(), Samples.end(), Variant) ==
                            Samples.end())
      Samples.push_back(Variant);
  }
  return Samples;
}

bool SygusSolver::verifySequential(const SygusQuery &Query,
                                   const SequentialProgram &Program) {
  // A cell the step does not mention keeps its value: its right-hand
  // side is its own signal.
  const CompiledQuery Space = compile(Query, Program.Steps);
  PrefixStack Frames(*this, Space, static_cast<unsigned>(Program.length()));
  for (size_t J = 0; J < Program.length(); ++J)
    for (size_t C = 0; C < Space.CellCount; ++C) {
      auto It = Program.Steps[J].find(Space.Slots[C]->name());
      Frames.step(J)[C] =
          It != Program.Steps[J].end() ? It->second : Space.Slots[C];
    }
  return Frames.verified();
}

SatResult SygusSolver::checkSat(const Formula *F) {
  return Service ? Service->checkFormula(F) : Solver.checkFormula(F);
}

std::optional<SequentialProgram> SygusSolver::synthesizeSequential(
    const CompiledQuery &Space, unsigned Steps,
    const std::vector<SequentialProgram> &Excluded, SygusStats *Stats) {
  std::vector<std::vector<const Term *>> ExcludedRhs;
  for (const SequentialProgram &P : Excluded)
    if (P.length() == Steps)
      ExcludedRhs.push_back(exclusionTerms(Space, P.Steps));

  // Enumerate all length-`Steps` sequences over the per-step choices in
  // lexicographic order (the paper bounds the search by AST height; the
  // chain grammar makes that the sequence length).
  std::vector<size_t> Indices(Steps, 0);
  PrefixStack Frames(*this, Space, Steps);
  for (size_t Position = 0; Position < Steps; ++Position)
    Frames.choose(Position, 0);
  for (;;) {
    // One enumeration round per candidate: the poll that makes the
    // search cooperatively cancellable (and the only exit under the
    // spin-hang fault).
    Dl.check();

    bool IsExcluded = std::any_of(
        ExcludedRhs.begin(), ExcludedRhs.end(),
        [&](const std::vector<const Term *> &Rhs) {
          return std::equal(Rhs.begin(), Rhs.end(), Frames.step(0));
        });
    if (!IsExcluded) {
      if (Stats)
        ++Stats->CandidatesTried;
      // Concrete screening on sampled models before the SMT query.
      if (!Frames.screened()) {
        if (Stats)
          ++Stats->VerifierCalls;
        if (Frames.verified() && !Opts.SpinHangForTesting) {
          SequentialProgram Found;
          for (size_t I : Indices)
            Found.Steps.push_back(Space.step(I));
          return Found;
        }
      }
    }

    // Advance the odometer.
    bool Wrapped = Steps == 0;
    size_t Position = Steps;
    while (Position > 0) {
      --Position;
      bool Carry = ++Indices[Position] == Space.ChoiceCount;
      if (Carry)
        Indices[Position] = 0;
      Frames.choose(Position, Indices[Position]);
      if (!Carry)
        break;
      if (Position == 0)
        Wrapped = true;
    }
    if (Wrapped) {
      // The injected spin-hang fault restarts the sweep instead of
      // reporting exhaustion: a deliberately non-terminating
      // enumeration only the deadline poll above can stop.
      if (!Opts.SpinHangForTesting)
        return std::nullopt;
    }
  }
}

std::optional<SequentialProgram> SygusSolver::synthesizeSequentialUpTo(
    const CompiledQuery &Space, unsigned MaxSteps,
    const std::vector<SequentialProgram> &Excluded, SygusStats *Stats) {
  for (unsigned Steps = 1; Steps <= MaxSteps; ++Steps)
    if (auto Program = synthesizeSequential(Space, Steps, Excluded, Stats))
      return Program;
  return std::nullopt;
}

std::optional<LoopProgram>
SygusSolver::synthesizeLoop(const CompiledQuery &Space,
                            const std::vector<LoopProgram> &Excluded,
                            SygusStats *Stats) {
  // The recursion wrapper (Sec. 5.1): validate candidate loop bodies by
  // iterating them from sampled pre-condition models until the
  // post-condition holds.
  if (Space.Samples.empty())
    return std::nullopt;
  std::vector<std::vector<const Term *>> ExcludedRhs;
  for (const LoopProgram &P : Excluded)
    if (P.Body.size() == 1)
      ExcludedRhs.push_back(exclusionTerms(Space, P.Body));

  // Candidate bodies: single steps, the only bodies Alg. 3's W
  // encoding can express.
  ConcreteFrame Now, Next;
  for (size_t K = 0; K < Space.ChoiceCount; ++K) {
    Dl.check(); // One poll per candidate body.
    std::vector<const Term *> Rhs(Space.CellCount);
    for (size_t C = 0; C < Space.CellCount; ++C)
      Rhs[C] = Space.option(K, C);
    if (std::find(ExcludedRhs.begin(), ExcludedRhs.end(), Rhs) !=
        ExcludedRhs.end())
      continue;
    if (Stats)
      ++Stats->CandidatesTried;

    bool AllSamplesReach = true;
    for (const std::vector<std::optional<Value>> &Sample : Space.Samples) {
      Now = initialFrame(Space, Sample);
      bool Reached = postHolds(Space, Sample, Now) == std::optional<bool>(true);
      for (unsigned Iter = 0; !Reached && Iter < MaxLoopIterations; ++Iter) {
        stepConcrete(Space, Sample, Now, Rhs.data(), Next);
        if (!Next.Ok)
          break;
        std::swap(Now, Next);
        Reached = postHolds(Space, Sample, Now) == std::optional<bool>(true);
      }
      if (!Reached) {
        AllSamplesReach = false;
        break;
      }
    }
    if (!AllSamplesReach)
      continue;
    LoopProgram Candidate{{Space.step(K)}};
    if (verifyLoopRanking(Space, Candidate.Body))
      return Candidate;
  }
  return std::nullopt;
}

bool SygusSolver::verifyLoopRanking(const SygusQuery &Query,
                                    const std::vector<StepChoice> &Body) {
  return verifyLoopRanking(compile(Query, Body), Body);
}

bool SygusSolver::verifyLoopRanking(const CompiledQuery &Space,
                                    const std::vector<StepChoice> &Body) {
  // Single-literal posts only (what the pipeline emits for loops).
  if (Space.Post.size() != 1)
    return false;
  const TheoryLiteral &Post = Space.Post[0];
  const Term *Atom = Post.Atom;
  if (!Atom->isApply() || Atom->arity() != 2)
    return false;

  // Normalize the post into (A REL B) with REL in {<, <=, =}, where the
  // goal is A < B, A <= B, or A = B respectively.
  const Term *A = Atom->args()[0];
  const Term *B = Atom->args()[1];
  bool Numeric = (A->sort() == Sort::Int || A->sort() == Sort::Real) &&
                 (B->sort() == Sort::Int || B->sort() == Sort::Real);
  if (!Numeric)
    return false;
  enum class Rel { LT, LE, EQ } Goal;
  const std::string &Op = Atom->name();
  bool Pos = Post.Positive;
  if ((Op == "<" && Pos) || (Op == ">=" && !Pos))
    Goal = Rel::LT;
  else if ((Op == "<=" && Pos) || (Op == ">" && !Pos))
    Goal = Rel::LE;
  else if ((Op == ">" && Pos) || (Op == "<=" && !Pos)) {
    Goal = Rel::LT;
    std::swap(A, B);
  } else if ((Op == ">=" && Pos) || (Op == "<" && !Pos)) {
    Goal = Rel::LE;
    std::swap(A, B);
  } else if ((Op == "=" && Pos) || (Op == "!=" && !Pos)) {
    Goal = Rel::EQ;
  } else {
    return false; // Disequality targets have no single ranking.
  }

  // Havoc inputs: every non-cell signal in the after-state reads a fresh
  // copy (suffix "!").
  const std::vector<const Term *> Fresh = inputCopies(Ctx.Terms, Space, "!");
  auto Havoc = [&](const Term *T) {
    return Ctx.Terms.substitute(T, inputsOf(Space), Fresh);
  };

  // One body iteration, inputs havocked inside the body as well; a cell
  // a step does not mention keeps its value.
  std::vector<const Term *> After(Space.Slots.begin(),
                                  Space.Slots.begin() + Space.CellCount);
  for (const StepChoice &Step : Body) {
    std::vector<const Term *> Next(Space.CellCount);
    for (size_t C = 0; C < Space.CellCount; ++C) {
      auto It = Step.find(Space.Slots[C]->name());
      const Term *Rhs = It != Step.end() ? It->second : Space.Slots[C];
      Next[C] = atState(Ctx.Terms, Space, Havoc(Rhs), After);
    }
    After = std::move(Next);
  }
  auto AtAfter = [&](const Term *T) {
    return atState(Ctx.Terms, Space, Havoc(T), After);
  };

  Sort GapSort = A->sort() == Sort::Real || B->sort() == Sort::Real
                     ? Sort::Real
                     : Sort::Int;
  auto Minus = [&](const Term *X, const Term *Y) {
    return Ctx.Terms.apply("-", GapSort, {X, Y});
  };
  auto Leq = [&](const Term *X, const Term *Y) {
    return Ctx.Formulas.pred(Ctx.Terms.apply("<=", Sort::Bool, {X, Y}));
  };
  const Term *One = Ctx.Terms.numeral(Rational(1), GapSort);

  auto LiteralFormula = [&](const TheoryLiteral &L, const Term *At) {
    return literal(Ctx.Formulas, L, At);
  };
  std::vector<const Formula *> Ambient;
  for (const TheoryLiteral &L : Space.Ambient) {
    // Ambient facts hold now and after the step (on fresh inputs).
    Ambient.push_back(LiteralFormula(L, L.Atom));
    Ambient.push_back(LiteralFormula(L, Havoc(L.Atom)));
  }
  const Formula *PostNow = LiteralFormula(Post, Post.Atom);
  const Formula *PostAfter = LiteralFormula(Post, AtAfter(Post.Atom));

  // Checks that Condition -> g' <= g - 1 is valid.
  auto ProgressUnder = [&](const Formula *Condition, const Term *GNow,
                           const Term *GAfter) {
    std::vector<const Formula *> Parts = Ambient;
    Parts.push_back(Condition);
    Parts.push_back(Ctx.Formulas.notF(Leq(GAfter, Minus(GNow, One))));
    return checkSat(Ctx.Formulas.andF(std::move(Parts))) ==
           SatResult::Unsat;
  };

  if (Goal != Rel::EQ) {
    // Tier 1: from ANY !post state, the gap g = A - B shrinks. g is
    // bounded below on !post states (g >= 0 for LT, g > 0 for LE), so
    // repeated decrease forces the post-condition for every input
    // evolution.
    const Term *GNow = Minus(A, B);
    const Term *GAfter = AtAfter(GNow);
    if (ProgressUnder(Ctx.Formulas.notF(PostNow), GNow, GAfter))
      return true;
  }

  // Tier 2: use the pre-condition as an inductive region (Example 4.5:
  // from x < 0, body x+1 reaches x = 0 without overshooting).
  std::vector<const Formula *> PreNowParts, PreAfterParts;
  for (const TheoryLiteral &L : Space.Pre) {
    PreNowParts.push_back(LiteralFormula(L, L.Atom));
    PreAfterParts.push_back(LiteralFormula(L, AtAfter(L.Atom)));
  }
  const Formula *PreNow = Ctx.Formulas.andF(PreNowParts);
  const Formula *PreAfter = Ctx.Formulas.andF(PreAfterParts);
  const Formula *Lhs = Ctx.Formulas.andF(PreNow, Ctx.Formulas.notF(PostNow));

  // Invariance: pre && !post -> (pre' || post').
  {
    std::vector<const Formula *> Parts = Ambient;
    Parts.push_back(Lhs);
    Parts.push_back(Ctx.Formulas.notF(Ctx.Formulas.orF(PreAfter, PostAfter)));
    if (checkSat(Ctx.Formulas.andF(std::move(Parts))) !=
        SatResult::Unsat)
      return false;
  }

  // Direction for EQ: rank whichever side pre proves smaller.
  const Term *GNow = nullptr;
  if (Goal == Rel::EQ) {
    // pre && ambient |= A <= B?
    std::vector<const Formula *> Parts = Ambient;
    Parts.push_back(PreNow);
    Parts.push_back(Ctx.Formulas.notF(Leq(A, B)));
    if (checkSat(Ctx.Formulas.andF(Parts)) == SatResult::Unsat) {
      GNow = Minus(B, A);
    } else {
      Parts = Ambient;
      Parts.push_back(PreNow);
      Parts.push_back(Ctx.Formulas.notF(Leq(B, A)));
      if (checkSat(Ctx.Formulas.andF(Parts)) == SatResult::Unsat)
        GNow = Minus(A, B);
      else
        return false;
    }
  } else {
    GNow = Minus(A, B);
  }
  return ProgressUnder(Lhs, GNow, AtAfter(GNow));
}
