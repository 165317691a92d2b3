//===- tests/property/PropertyTest.cpp - Property-based invariants --------===//
///
/// \file
/// Randomized (deterministically seeded) property tests over the
/// substrate invariants:
///  * rational arithmetic obeys the field axioms,
///  * NNF preserves truth under every boolean assignment,
///  * simplex models satisfy the asserted atoms; unsat verdicts agree
///    with brute force on small integer grids,
///  * the tableau respects basic logical laws (F && !F unsat, ...),
///  * SyGuS-verified sequential programs satisfy their obligations on
///    concrete runs.
///
//===----------------------------------------------------------------------===//

#include "automata/Tableau.h"
#include "logic/Simplify.h"
#include "logic/Parser.h"
#include "support/Rng.h"
#include "sygus/SygusSolver.h"
#include "theory/Evaluator.h"
#include "theory/Simplex.h"
#include "theory/SmtSolver.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

/// Effective seed for one parameterized case: the suite's built-in
/// parameter unless the TEMOS_SEED environment variable overrides it.
/// Callers wrap it in SCOPED_TRACE so every failure names the exact
/// rerun command.
uint64_t caseSeed(int64_t Param) {
  return resolveSeed(static_cast<uint64_t>(Param));
}

//===----------------------------------------------------------------------===//
// Rational field axioms.
//===----------------------------------------------------------------------===//

class RationalProperties : public ::testing::TestWithParam<int> {};

TEST_P(RationalProperties, FieldAxioms) {
  const uint64_t Seed = caseSeed(GetParam());
  SCOPED_TRACE(::testing::Message() << "reproduce with TEMOS_SEED=" << Seed);
  Rng R(Seed);
  for (int I = 0; I < 200; ++I) {
    Rational A(R.range(-50, 50), R.range(1, 20));
    Rational B(R.range(-50, 50), R.range(1, 20));
    Rational C(R.range(-50, 50), R.range(1, 20));
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ((A * B) * C, A * (B * C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A + Rational(0), A);
    EXPECT_EQ(A * Rational(1), A);
    EXPECT_EQ(A - A, Rational(0));
    if (!B.isZero()) {
      EXPECT_EQ((A / B) * B, A);
    }
    // Order consistency.
    EXPECT_EQ(A < B, !(B <= A));
    // Floor/ceil bracket the value.
    EXPECT_LE(Rational(A.floor()), A);
    EXPECT_GE(Rational(A.ceil()), A);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalProperties,
                         ::testing::Values(1, 2, 3, 4, 5));

//===----------------------------------------------------------------------===//
// NNF truth preservation.
//===----------------------------------------------------------------------===//

class NnfProperties : public ::testing::TestWithParam<int> {
protected:
  const Formula *randomBooleanFormula(Rng &R, FormulaFactory &FF,
                                      const std::vector<const Formula *> &Atoms,
                                      int Depth) {
    if (Depth == 0 || R.range(0, 3) == 0)
      return Atoms[R.range(0, static_cast<int64_t>(Atoms.size()) - 1)];
    switch (R.range(0, 4)) {
    case 0:
      return FF.notF(randomBooleanFormula(R, FF, Atoms, Depth - 1));
    case 1:
      return FF.andF(randomBooleanFormula(R, FF, Atoms, Depth - 1),
                     randomBooleanFormula(R, FF, Atoms, Depth - 1));
    case 2:
      return FF.orF(randomBooleanFormula(R, FF, Atoms, Depth - 1),
                    randomBooleanFormula(R, FF, Atoms, Depth - 1));
    case 3:
      return FF.implies(randomBooleanFormula(R, FF, Atoms, Depth - 1),
                        randomBooleanFormula(R, FF, Atoms, Depth - 1));
    default:
      return FF.iff(randomBooleanFormula(R, FF, Atoms, Depth - 1),
                    randomBooleanFormula(R, FF, Atoms, Depth - 1));
    }
  }

  bool evalBool(const Formula *F, const std::vector<bool> &Assign,
                const std::vector<const Formula *> &Atoms) {
    switch (F->kind()) {
    case Formula::Kind::True:
      return true;
    case Formula::Kind::False:
      return false;
    case Formula::Kind::Pred: {
      for (size_t I = 0; I < Atoms.size(); ++I)
        if (Atoms[I] == F)
          return Assign[I];
      ADD_FAILURE() << "unknown atom";
      return false;
    }
    case Formula::Kind::Not:
      return !evalBool(F->child(0), Assign, Atoms);
    case Formula::Kind::And: {
      for (const Formula *Kid : F->children())
        if (!evalBool(Kid, Assign, Atoms))
          return false;
      return true;
    }
    case Formula::Kind::Or: {
      for (const Formula *Kid : F->children())
        if (evalBool(Kid, Assign, Atoms))
          return true;
      return false;
    }
    case Formula::Kind::Implies:
      return !evalBool(F->lhs(), Assign, Atoms) ||
             evalBool(F->rhs(), Assign, Atoms);
    case Formula::Kind::Iff:
      return evalBool(F->lhs(), Assign, Atoms) ==
             evalBool(F->rhs(), Assign, Atoms);
    default:
      ADD_FAILURE() << "unexpected node";
      return false;
    }
  }
};

TEST_P(NnfProperties, NnfPreservesTruth) {
  const uint64_t Seed = caseSeed(GetParam());
  SCOPED_TRACE(::testing::Message() << "reproduce with TEMOS_SEED=" << Seed);
  Rng R(Seed);
  TermFactory TF;
  FormulaFactory FF;
  std::vector<const Formula *> Atoms;
  for (const char *Name : {"a", "b", "c"})
    Atoms.push_back(FF.pred(TF.signal(Name, Sort::Bool)));

  for (int Trial = 0; Trial < 60; ++Trial) {
    const Formula *F = randomBooleanFormula(R, FF, Atoms, 4);
    const Formula *N = FF.toNNF(F);
    // NNF has negations only on atoms.
    bool DeepNegation = false;
    std::function<void(const Formula *)> Check = [&](const Formula *Node) {
      if (Node->is(Formula::Kind::Not) && !Node->child(0)->isAtom())
        DeepNegation = true;
      if (Node->is(Formula::Kind::Implies) || Node->is(Formula::Kind::Iff))
        DeepNegation = true;
      for (const Formula *Kid : Node->children())
        Check(Kid);
    };
    Check(N);
    EXPECT_FALSE(DeepNegation) << N->str();

    for (unsigned Mask = 0; Mask < 8; ++Mask) {
      std::vector<bool> Assign = {(Mask & 1) != 0, (Mask & 2) != 0,
                                  (Mask & 4) != 0};
      EXPECT_EQ(evalBool(F, Assign, Atoms), evalBool(N, Assign, Atoms))
          << F->str() << "  vs  " << N->str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnfProperties, ::testing::Values(7, 8, 9));

//===----------------------------------------------------------------------===//
// SMT solver vs brute force on small integer boxes.
//===----------------------------------------------------------------------===//

class SmtProperties : public ::testing::TestWithParam<int> {};

TEST_P(SmtProperties, AgreesWithBruteForce) {
  const uint64_t Seed = caseSeed(GetParam());
  SCOPED_TRACE(::testing::Message() << "reproduce with TEMOS_SEED=" << Seed);
  Rng R(Seed);
  TermFactory TF;
  const Term *X = TF.signal("x", Sort::Int);
  const Term *Y = TF.signal("y", Sort::Int);
  Evaluator E;

  for (int Trial = 0; Trial < 40; ++Trial) {
    // Random conjunction of 3 atoms: (ax + by) REL c within a small box.
    std::vector<TheoryLiteral> Literals;
    // Box bounds keep brute force feasible and match the solver domain.
    auto Bound = [&](const Term *V, const char *Op, int64_t C) {
      Literals.push_back({TF.apply(Op, Sort::Bool, {V, TF.numeral(C)}), true});
    };
    Bound(X, ">=", -6);
    Bound(X, "<=", 6);
    Bound(Y, ">=", -6);
    Bound(Y, "<=", 6);
    static const char *Rels[] = {"<", "<=", ">", ">=", "="};
    for (int I = 0; I < 3; ++I) {
      const Term *Lhs = TF.apply(
          "+", Sort::Int,
          {TF.apply("*", Sort::Int, {TF.numeral(R.range(-3, 3)), X}),
           TF.apply("*", Sort::Int, {TF.numeral(R.range(-3, 3)), Y})});
      const Term *Atom = TF.apply(Rels[R.range(0, 4)], Sort::Bool,
                                  {Lhs, TF.numeral(R.range(-8, 8))});
      Literals.push_back({Atom, R.range(0, 1) == 0});
    }

    SmtSolver Solver(Theory::LIA);
    Assignment Model;
    SatResult Verdict = Solver.checkLiterals(Literals, &Model);

    // Brute force over the box.
    bool BruteSat = false;
    for (int64_t XV = -6; XV <= 6 && !BruteSat; ++XV)
      for (int64_t YV = -6; YV <= 6 && !BruteSat; ++YV) {
        Assignment Env = {{"x", Value::integer(XV)},
                          {"y", Value::integer(YV)}};
        bool All = true;
        for (const TheoryLiteral &L : Literals) {
          auto V = E.evaluateBool(L.Atom, Env);
          if (!V || *V != L.Positive) {
            All = false;
            break;
          }
        }
        BruteSat |= All;
      }

    ASSERT_NE(Verdict, SatResult::Unknown);
    EXPECT_EQ(Verdict == SatResult::Sat, BruteSat) << "trial " << Trial;
    if (Verdict == SatResult::Sat) {
      // The model must satisfy every literal.
      for (const TheoryLiteral &L : Literals) {
        auto V = E.evaluateBool(L.Atom, Model);
        ASSERT_TRUE(V.has_value());
        EXPECT_EQ(*V, L.Positive);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtProperties,
                         ::testing::Values(11, 12, 13, 14));

//===----------------------------------------------------------------------===//
// Tableau logical laws.
//===----------------------------------------------------------------------===//

/// Satisfiability of \p F; these small formulas are always decided.
bool satisfiable(const Formula *F, Context &Ctx, const Alphabet &AB) {
  return isSatisfiable(F, Ctx, AB).value();
}

class TableauProperties : public ::testing::TestWithParam<int> {
protected:
  const Formula *randomLtl(Rng &R, FormulaFactory &FF,
                           const std::vector<const Formula *> &Atoms,
                           int Depth) {
    if (Depth == 0 || R.range(0, 3) == 0)
      return Atoms[R.range(0, static_cast<int64_t>(Atoms.size()) - 1)];
    switch (R.range(0, 6)) {
    case 0:
      return FF.notF(randomLtl(R, FF, Atoms, Depth - 1));
    case 1:
      return FF.andF(randomLtl(R, FF, Atoms, Depth - 1),
                     randomLtl(R, FF, Atoms, Depth - 1));
    case 2:
      return FF.orF(randomLtl(R, FF, Atoms, Depth - 1),
                    randomLtl(R, FF, Atoms, Depth - 1));
    case 3:
      return FF.next(randomLtl(R, FF, Atoms, Depth - 1));
    case 4:
      return FF.globally(randomLtl(R, FF, Atoms, Depth - 1));
    case 5:
      return FF.finallyF(randomLtl(R, FF, Atoms, Depth - 1));
    default:
      return FF.until(randomLtl(R, FF, Atoms, Depth - 1),
                      randomLtl(R, FF, Atoms, Depth - 1));
    }
  }
};

TEST_P(TableauProperties, LogicalLaws) {
  const uint64_t Seed = caseSeed(GetParam());
  SCOPED_TRACE(::testing::Message() << "reproduce with TEMOS_SEED=" << Seed);
  Rng R(Seed);
  Context Ctx;
  auto Spec = parseSpecification("inputs { bool a, b; }", Ctx);
  ASSERT_TRUE(Spec.ok());
  std::vector<const Formula *> Atoms = {
      Ctx.Formulas.pred(Ctx.Terms.signal("a", Sort::Bool)),
      Ctx.Formulas.pred(Ctx.Terms.signal("b", Sort::Bool))};

  for (int Trial = 0; Trial < 25; ++Trial) {
    const Formula *F = randomLtl(R, Ctx.Formulas, Atoms, 3);
    // Register both atoms regardless of which ones F mentions: the law
    // checks below combine F with them.
    Alphabet AB = Alphabet::build(*Spec, Ctx, {F, Atoms[0], Atoms[1]});
    bool SatF = satisfiable(F, Ctx, AB);
    bool SatNotF = satisfiable(Ctx.Formulas.notF(F), Ctx, AB);
    // Excluded middle at the trace level.
    EXPECT_TRUE(SatF || SatNotF) << F->str();
    // Contradiction law.
    EXPECT_FALSE(
        satisfiable(Ctx.Formulas.andF(F, Ctx.Formulas.notF(F)), Ctx, AB))
        << F->str();
    // Monotonicity: F satisfiable implies F || anything satisfiable.
    if (SatF) {
      EXPECT_TRUE(satisfiable(Ctx.Formulas.orF(F, Atoms[0]), Ctx, AB));
    }
    // G F idempotence: sat(G f) implies sat(f).
    EXPECT_EQ(satisfiable(Ctx.Formulas.globally(F), Ctx, AB) && true,
              satisfiable(Ctx.Formulas.globally(F), Ctx, AB));
    if (satisfiable(Ctx.Formulas.globally(F), Ctx, AB)) {
      EXPECT_TRUE(SatF) << "G " << F->str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableauProperties,
                         ::testing::Values(21, 22, 23));

//===----------------------------------------------------------------------===//
// Verified SyGuS programs satisfy their obligations concretely.
//===----------------------------------------------------------------------===//

class SygusProperties : public ::testing::TestWithParam<int> {};

TEST_P(SygusProperties, VerifiedProgramsHoldOnConcreteRuns) {
  const uint64_t Seed = caseSeed(GetParam());
  SCOPED_TRACE(::testing::Message() << "reproduce with TEMOS_SEED=" << Seed);
  Rng R(Seed);
  Context Ctx;
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Inc = Ctx.Terms.apply("+", Sort::Int, {X, Ctx.Terms.numeral(1)});
  const Term *Dec = Ctx.Terms.apply("-", Sort::Int, {X, Ctx.Terms.numeral(1)});
  Evaluator E;

  for (int Trial = 0; Trial < 20; ++Trial) {
    int64_t Start = R.range(-3, 3);
    int64_t TargetDelta = R.range(-3, 3);
    SygusSolver Solver(Ctx, Theory::LIA);
    SygusQuery Q;
    Q.Cells = {{"x", Sort::Int, {Inc, Dec, X}}};
    Q.Pre = {{Ctx.Terms.apply("=", Sort::Bool, {X, Ctx.Terms.numeral(Start)}),
              true}};
    Q.Post = {{Ctx.Terms.apply(
                   "=", Sort::Bool,
                   {X, Ctx.Terms.numeral(Start + TargetDelta)}),
               true}};
    unsigned Steps = static_cast<unsigned>(
        TargetDelta >= 0 ? TargetDelta : -TargetDelta);
    if (Steps == 0)
      Steps = 2; // Reach the same value in two steps (+1 then -1).
    auto P = Solver.synthesizeSequential(Solver.searchSpace(Q), Steps);
    ASSERT_TRUE(P.has_value()) << "start " << Start << " delta "
                               << TargetDelta;

    // Execute from the pre-condition state: post must hold.
    Assignment State = {{"x", Value::integer(Start)}};
    for (const StepChoice &Step : P->Steps)
      ASSERT_TRUE(applyStepConcrete(E, State, Step));
    EXPECT_EQ(State.at("x").getNumber(), Rational(Start + TargetDelta));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SygusProperties,
                         ::testing::Values(31, 32, 33));

//===----------------------------------------------------------------------===//
// Simplifier preserves the language (checked via tableau satisfiability
// of the XOR-style combinations).
//===----------------------------------------------------------------------===//

class SimplifyProperties : public TableauProperties {};

TEST_P(SimplifyProperties, SimplifyPreservesSatisfiability) {
  const uint64_t Seed = caseSeed(GetParam() + 100);
  SCOPED_TRACE(::testing::Message() << "reproduce with TEMOS_SEED=" << Seed);
  Rng R(Seed);
  Context Ctx;
  auto Spec = parseSpecification("inputs { bool a, b; }", Ctx);
  ASSERT_TRUE(Spec.ok());
  std::vector<const Formula *> Atoms = {
      Ctx.Formulas.pred(Ctx.Terms.signal("a", Sort::Bool)),
      Ctx.Formulas.pred(Ctx.Terms.signal("b", Sort::Bool))};

  for (int Trial = 0; Trial < 20; ++Trial) {
    const Formula *F = randomLtl(R, Ctx.Formulas, Atoms, 3);
    const Formula *S = simplify(F, Ctx.Formulas);
    Alphabet AB = Alphabet::build(*Spec, Ctx, {F, S, Atoms[0], Atoms[1]});
    // Equivalence: F && !S and !F && S must both be unsatisfiable.
    EXPECT_FALSE(satisfiable(
        Ctx.Formulas.andF(F, Ctx.Formulas.notF(S)), Ctx, AB))
        << F->str() << "  vs  " << S->str();
    EXPECT_FALSE(satisfiable(
        Ctx.Formulas.andF(Ctx.Formulas.notF(F), S), Ctx, AB))
        << F->str() << "  vs  " << S->str();
    // Note: no size assertion -- distribution rules (G over &&, F over
    // ||) intentionally trade node count for automaton-state sharing.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyProperties,
                         ::testing::Values(41, 42, 43));

//===----------------------------------------------------------------------===//
// verifySequential agrees with exhaustive simulation on input-free
// queries (soundness AND completeness on a finite box).
//===----------------------------------------------------------------------===//

class VerifierProperties : public ::testing::TestWithParam<int> {};

TEST_P(VerifierProperties, SequentialVerifierMatchesBruteForce) {
  const uint64_t Seed = caseSeed(GetParam());
  SCOPED_TRACE(::testing::Message() << "reproduce with TEMOS_SEED=" << Seed);
  Rng R(Seed);
  Context Ctx;
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Inc = Ctx.Terms.apply("+", Sort::Int, {X, Ctx.Terms.numeral(1)});
  const Term *Dec = Ctx.Terms.apply("-", Sort::Int, {X, Ctx.Terms.numeral(1)});
  const Term *Dbl = Ctx.Terms.apply("*", Sort::Int, {Ctx.Terms.numeral(2), X});
  std::vector<const Term *> Updates = {Inc, Dec, Dbl, X};
  Evaluator E;

  for (int Trial = 0; Trial < 30; ++Trial) {
    // Random 1-3 step program over the updates.
    SequentialProgram Program;
    size_t Steps = static_cast<size_t>(R.range(1, 3));
    for (size_t I = 0; I < Steps; ++I)
      Program.Steps.push_back({{"x", Updates[R.range(0, 3)]}});

    // Pre: lo <= x <= hi; post: x REL c.
    int64_t Lo = R.range(-4, 0), Hi = R.range(0, 4);
    static const char *Rels[] = {"<", "<=", ">", ">=", "="};
    const char *Rel = Rels[R.range(0, 4)];
    int64_t C = R.range(-10, 10);

    SygusSolver Solver(Ctx, Theory::LIA);
    SygusQuery Q;
    Q.Cells = {{"x", Sort::Int, Updates}};
    Q.Pre = {
        {Ctx.Terms.apply(">=", Sort::Bool, {X, Ctx.Terms.numeral(Lo)}), true},
        {Ctx.Terms.apply("<=", Sort::Bool, {X, Ctx.Terms.numeral(Hi)}), true}};
    Q.Post = {{Ctx.Terms.apply(Rel, Sort::Bool, {X, Ctx.Terms.numeral(C)}),
               true}};

    bool Verified = Solver.verifySequential(Q, Program);

    // Brute force: every start value in [Lo, Hi] must reach the post.
    bool Brute = true;
    for (int64_t Start = Lo; Start <= Hi; ++Start) {
      Assignment State = {{"x", Value::integer(Start)}};
      for (const StepChoice &Step : Program.Steps)
        ASSERT_TRUE(applyStepConcrete(E, State, Step));
      auto V = E.evaluateBool(Q.Post[0].Atom, State);
      ASSERT_TRUE(V.has_value());
      Brute &= *V;
    }
    EXPECT_EQ(Verified, Brute)
        << "program " << Program.str() << " pre [" << Lo << "," << Hi
        << "] post x " << Rel << " " << C;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierProperties,
                         ::testing::Values(51, 52, 53, 54));

} // namespace
