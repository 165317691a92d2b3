//===- sygus/SygusSolver.cpp - Enumerative SyGuS engine --------------------===//

#include "sygus/SygusSolver.h"

#include "theory/SolverService.h"

#include <algorithm>
#include <set>

using namespace temos;

namespace {

/// Collects every signal mentioned by the query (pre, post, updates).
void collectQuerySignals(const SygusQuery &Query,
                         std::map<std::string, Sort> &Out) {
  auto FromTerm = [&](const Term *T) {
    std::function<void(const Term *)> Walk = [&](const Term *Node) {
      if (Node->isSignal())
        Out.emplace(Node->name(), Node->sort());
      for (const Term *Arg : Node->args())
        Walk(Arg);
    };
    Walk(T);
  };
  for (const TheoryLiteral &L : Query.Pre)
    FromTerm(L.Atom);
  for (const TheoryLiteral &L : Query.Post)
    FromTerm(L.Atom);
  for (const CellSpec &Cell : Query.Cells)
    for (const Term *U : Cell.Updates)
      FromTerm(U);
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

} // namespace

std::vector<StepChoice> SygusSolver::stepChoices(const SygusQuery &Query) const {
  // Cartesian product of per-cell update options. Cells with no declared
  // updates implicitly self-update (TSL semantics).
  std::vector<StepChoice> Choices;
  Choices.push_back({});
  for (const CellSpec &Cell : Query.Cells) {
    std::vector<const Term *> Options = Cell.Updates;
    if (Options.empty())
      Options.push_back(Ctx.Terms.signal(Cell.Name, Cell.S));
    std::vector<StepChoice> Expanded;
    Expanded.reserve(Choices.size() * Options.size());
    for (const StepChoice &Partial : Choices)
      for (const Term *Option : Options) {
        StepChoice Next = Partial;
        Next[Cell.Name] = Option;
        Expanded.push_back(std::move(Next));
      }
    Choices = std::move(Expanded);
  }
  return Choices;
}

SygusSearchSpace SygusSolver::searchSpace(const SygusQuery &Query) {
  return {stepChoices(Query), samplePreModels(Query)};
}

std::optional<bool>
SygusSolver::postHoldsConcrete(const SygusQuery &Query,
                               const Assignment &State) const {
  bool SawUnknown = false;
  for (const TheoryLiteral &L : Query.Post) {
    auto V = Eval.evaluateBool(L.Atom, State);
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

std::vector<Assignment> SygusSolver::samplePreModels(const SygusQuery &Query) {
  std::map<std::string, Sort> Signals;
  collectQuerySignals(Query, Signals);

  std::vector<Assignment> Samples;
  Assignment Base;
  std::vector<TheoryLiteral> Constraints = Query.Pre;
  Constraints.insert(Constraints.end(), Query.Ambient.begin(),
                     Query.Ambient.end());
  SatResult R = Solver.checkLiterals(Constraints, &Base);
  if (R != SatResult::Sat)
    return Samples;

  // Fill in signals the model omitted.
  for (const auto &[Name, S] : Signals)
    if (!Base.count(Name))
      Base[Name] = defaultValue(S);
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

namespace {

/// Havocs the environment inputs in \p T: every signal that is not in
/// \p Cells becomes a fresh copy named with \p Suffix, so the program
/// must work whatever value the environment gives it.
const Term *havocInputs(TermFactory &TF, const Term *T,
                        const std::set<std::string> &Cells,
                        const std::string &Suffix) {
  std::unordered_map<std::string, const Term *> Map;
  std::function<void(const Term *)> Walk = [&](const Term *Node) {
    if (Node->isSignal() && !Cells.count(Node->name()))
      Map.emplace(Node->name(),
                  TF.signal(Node->name() + Suffix, Node->sort()));
    for (const Term *Arg : Node->args())
      Walk(Arg);
  };
  Walk(T);
  return TF.substituteAll(T, Map);
}

} // namespace

bool SygusSolver::verifySequential(const SygusQuery &Query,
                                   const SequentialProgram &Program) {
  // Cells evolve symbolically; every other signal is an environment
  // input that gets a fresh copy per step (the environment may change
  // it arbitrarily between steps).
  std::set<std::string> CellNames;
  std::map<std::string, const Term *> State;
  for (const CellSpec &Cell : Query.Cells) {
    CellNames.insert(Cell.Name);
    State[Cell.Name] = Ctx.Terms.signal(Cell.Name, Cell.S);
  }

  // Renames input signals in \p T to their step-J copies (step 0 keeps
  // the original names: pre and step-0 updates read the same instant).
  auto HavocInputs = [&](const Term *T, size_t J) {
    return J == 0 ? T
                  : havocInputs(Ctx.Terms, T, CellNames,
                                std::string("#").append(std::to_string(J)));
  };

  std::vector<const Formula *> Parts;
  auto AddLiteral = [&](const TheoryLiteral &L, const Term *Atom) {
    const Formula *F = Ctx.Formulas.pred(Atom);
    Parts.push_back(L.Positive ? F : Ctx.Formulas.notF(F));
  };

  // Pre-condition at step 0.
  for (const TheoryLiteral &L : Query.Pre)
    AddLiteral(L, L.Atom);

  // Ambient facts at every step: instantiated on the step's input
  // copies and the step's symbolic cell state.
  auto AddAmbient = [&](size_t J,
                        const std::map<std::string, const Term *> &CellState) {
    for (const TheoryLiteral &L : Query.Ambient) {
      const Term *Atom = HavocInputs(L.Atom, J);
      std::unordered_map<std::string, const Term *> CellMap(CellState.begin(),
                                                            CellState.end());
      AddLiteral(L, Ctx.Terms.substituteAll(Atom, CellMap));
    }
  };
  AddAmbient(0, State);

  // Apply the steps.
  for (size_t J = 0; J < Program.Steps.size(); ++J) {
    StepChoice Havocked;
    for (const auto &[Cell, Rhs] : Program.Steps[J])
      Havocked[Cell] = HavocInputs(Rhs, J);
    State = applyStepSymbolic(Ctx.Terms, State, Havocked);
    AddAmbient(J + 1, State);
  }

  // Negated post-condition at step n on the final state and input copy.
  std::unordered_map<std::string, const Term *> FinalMap(State.begin(),
                                                         State.end());
  std::vector<const Formula *> NegPost;
  for (const TheoryLiteral &L : Query.Post) {
    const Term *Atom = HavocInputs(L.Atom, Program.Steps.size());
    Atom = Ctx.Terms.substituteAll(Atom, FinalMap);
    const Formula *F = Ctx.Formulas.pred(Atom);
    NegPost.push_back(L.Positive ? Ctx.Formulas.notF(F) : F);
  }
  Parts.push_back(Ctx.Formulas.orF(std::move(NegPost)));
  const Formula *Vc = Ctx.Formulas.andF(std::move(Parts));
  return checkSat(Vc) == SatResult::Unsat;
}

SatResult SygusSolver::checkSat(const Formula *F) {
  return Service ? Service->checkFormula(F) : Solver.checkFormula(F);
}

std::optional<SequentialProgram> SygusSolver::synthesizeSequential(
    const SygusQuery &Query, const SygusSearchSpace &Space, unsigned Steps,
    const std::vector<SequentialProgram> &Excluded, SygusStats *Stats) {
  const std::vector<StepChoice> &Choices = Space.Choices;
  if (Choices.empty())
    return std::nullopt;

  // Enumerate all length-`Steps` sequences over the per-step choices in
  // lexicographic order (the paper bounds the search by AST height; the
  // chain grammar makes that the sequence length).
  std::vector<size_t> Indices(Steps, 0);
  for (;;) {
    // One enumeration round per candidate: the poll that makes the
    // search cooperatively cancellable (and the only exit under the
    // spin-hang fault).
    Dl.check();

    SequentialProgram Candidate;
    Candidate.Steps.reserve(Steps);
    for (size_t I : Indices)
      Candidate.Steps.push_back(Choices[I]);

    bool IsExcluded =
        std::find(Excluded.begin(), Excluded.end(), Candidate) !=
        Excluded.end();
    if (!IsExcluded) {
      if (Stats)
        ++Stats->CandidatesTried;

      // Concrete screening on sampled models before the SMT query.
      bool Screened = false;
      for (const Assignment &Sample : Space.Samples) {
        Assignment State = Sample;
        bool Ok = true;
        for (const StepChoice &Step : Candidate.Steps)
          if (!applyStepConcrete(Eval, State, Step)) {
            Ok = false;
            break;
          }
        if (Ok && postHoldsConcrete(Query, State) ==
                      std::optional<bool>(false)) {
          Screened = true;
          break;
        }
      }
      if (!Screened) {
        if (Stats)
          ++Stats->VerifierCalls;
        if (verifySequential(Query, Candidate) && !Opts.SpinHangForTesting)
          return Candidate;
      }
    }

    // Advance the odometer.
    bool Wrapped = Steps == 0;
    size_t Position = Steps;
    while (Position > 0) {
      --Position;
      if (++Indices[Position] < Choices.size())
        break;
      Indices[Position] = 0;
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
    const SygusQuery &Query, const SygusSearchSpace &Space, unsigned MaxSteps,
    const std::vector<SequentialProgram> &Excluded, SygusStats *Stats) {
  for (unsigned Steps = 1; Steps <= MaxSteps; ++Steps)
    if (auto Program =
            synthesizeSequential(Query, Space, Steps, Excluded, Stats))
      return Program;
  return std::nullopt;
}

std::optional<LoopProgram>
SygusSolver::synthesizeLoop(const SygusQuery &Query,
                            const SygusSearchSpace &Space,
                            const std::vector<LoopProgram> &Excluded,
                            SygusStats *Stats) {
  // The recursion wrapper (Sec. 5.1): validate candidate loop bodies by
  // iterating them from sampled pre-condition models until the
  // post-condition holds.
  const std::vector<Assignment> &Samples = Space.Samples;
  if (Samples.empty())
    return std::nullopt;

  // Candidate bodies: single steps, the only bodies Alg. 3's W
  // encoding can express.
  for (const StepChoice &Choice : Space.Choices) {
    Dl.check(); // One poll per candidate body.
    LoopProgram Candidate{{Choice}};
    if (std::any_of(Excluded.begin(), Excluded.end(),
                    [&](const LoopProgram &Ex) {
                      return Ex.Body == Candidate.Body;
                    }))
      continue;
    if (Stats)
      ++Stats->CandidatesTried;

    bool AllSamplesReach = true;
    for (const Assignment &Sample : Samples) {
      Assignment State = Sample;
      bool Reached = postHoldsConcrete(Query, State) ==
                     std::optional<bool>(true);
      for (unsigned Iter = 0; !Reached && Iter < MaxLoopIterations; ++Iter) {
        if (!applyStepConcrete(Eval, State, Choice))
          break;
        Reached = postHoldsConcrete(Query, State) ==
                  std::optional<bool>(true);
      }
      if (!Reached) {
        AllSamplesReach = false;
        break;
      }
    }
    if (AllSamplesReach && verifyLoopRanking(Query, Candidate.Body))
      return Candidate;
  }
  return std::nullopt;
}

bool SygusSolver::verifyLoopRanking(const SygusQuery &Query,
                                    const std::vector<StepChoice> &Body) {
  // Single-literal posts only (what the pipeline emits for loops).
  if (Query.Post.size() != 1)
    return false;
  const TheoryLiteral &Post = Query.Post[0];
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

  std::set<std::string> CellNames;
  std::map<std::string, const Term *> Before;
  for (const CellSpec &Cell : Query.Cells) {
    CellNames.insert(Cell.Name);
    Before[Cell.Name] = Ctx.Terms.signal(Cell.Name, Cell.S);
  }

  // Havoc inputs: every non-cell signal in the after-state reads a fresh
  // copy (suffix "!").
  auto Havoc = [&](const Term *T) {
    return havocInputs(Ctx.Terms, T, CellNames, "!");
  };

  // One body iteration, inputs havocked inside the body as well.
  std::map<std::string, const Term *> After = Before;
  for (const StepChoice &Step : Body) {
    StepChoice Havocked;
    for (const auto &[Cell, Rhs] : Step)
      Havocked[Cell] = Havoc(Rhs);
    After = applyStepSymbolic(Ctx.Terms, After, Havocked);
  }
  std::unordered_map<std::string, const Term *> AfterMap(After.begin(),
                                                         After.end());
  auto AtAfter = [&](const Term *T) {
    return Ctx.Terms.substituteAll(Havoc(T), AfterMap);
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
    const Formula *F = Ctx.Formulas.pred(At);
    return L.Positive ? F : Ctx.Formulas.notF(F);
  };
  std::vector<const Formula *> Ambient;
  for (const TheoryLiteral &L : Query.Ambient) {
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
  for (const TheoryLiteral &L : Query.Pre) {
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
