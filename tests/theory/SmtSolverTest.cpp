//===- tests/theory/SmtSolverTest.cpp - SMT driver tests ------------------===//

#include "theory/SmtSolver.h"

#include "theory/Evaluator.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class SmtSolverTest : public ::testing::Test {
protected:
  const Term *intSig(const std::string &Name) {
    return Ctx.Terms.signal(Name, Sort::Int);
  }
  const Term *realSig(const std::string &Name) {
    return Ctx.Terms.signal(Name, Sort::Real);
  }
  const Term *cmp(const char *Op, const Term *A, const Term *B) {
    return Ctx.Terms.apply(Op, Sort::Bool, {A, B});
  }

  Context Ctx;
  SmtSolver Solver{Theory::LIA};
};

TEST_F(SmtSolverTest, EmptyConjunctionIsSat) {
  EXPECT_EQ(Solver.checkLiterals({}), SatResult::Sat);
}

TEST_F(SmtSolverTest, MutexParadox) {
  // Sec. 4.2: (x < y) && (y < x) is unsatisfiable -- this is exactly the
  // consistency-checking query for the mutex example.
  const Term *X = intSig("x");
  const Term *Y = intSig("y");
  std::vector<TheoryLiteral> Lits = {{cmp("<", X, Y), true},
                                     {cmp("<", Y, X), true}};
  EXPECT_EQ(Solver.checkLiterals(Lits), SatResult::Unsat);
  // Each literal alone is satisfiable.
  EXPECT_EQ(Solver.checkLiterals({{cmp("<", X, Y), true}}), SatResult::Sat);
}

TEST_F(SmtSolverTest, ModelExtraction) {
  const Term *X = intSig("x");
  const Term *Y = intSig("y");
  Assignment Model;
  std::vector<TheoryLiteral> Lits = {
      {cmp("<", X, Y), true},
      {cmp("<", Y, Ctx.Terms.numeral(3)), true},
      {cmp(">", X, Ctx.Terms.numeral(0)), true}};
  ASSERT_EQ(Solver.checkLiterals(Lits, &Model), SatResult::Sat);
  // The model must actually satisfy all literals.
  Evaluator E;
  for (const TheoryLiteral &L : Lits) {
    auto V = E.evaluateBool(L.Atom, Model);
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, L.Positive);
  }
  // Integer sort means integral values.
  EXPECT_TRUE(Model.at("x").getNumber().isInteger());
  EXPECT_TRUE(Model.at("y").getNumber().isInteger());
}

TEST_F(SmtSolverTest, IntegerInfeasibleRealFeasible) {
  // 0 < x < 1 has no integer solution but a real one.
  const Term *X = intSig("x");
  std::vector<TheoryLiteral> Lits = {
      {cmp(">", X, Ctx.Terms.numeral(0)), true},
      {cmp("<", X, Ctx.Terms.numeral(1)), true}};
  EXPECT_EQ(Solver.checkLiterals(Lits), SatResult::Unsat);

  const Term *R = realSig("r");
  std::vector<TheoryLiteral> RealLits = {
      {cmp(">", R, Ctx.Terms.numeral(0)), true},
      {cmp("<", R, Ctx.Terms.numeral(1)), true}};
  EXPECT_EQ(Solver.checkLiterals(RealLits), SatResult::Sat);
}

TEST_F(SmtSolverTest, IntConstantIsIntegral) {
  // A zero-argument function of sort Int is an integer like an Int
  // signal: 0 < k() < 1 has no solution, over a Real k() it has one.
  const Term *K = Ctx.Terms.apply("k", Sort::Int, {});
  std::vector<TheoryLiteral> Lits = {
      {cmp(">", K, Ctx.Terms.numeral(0)), true},
      {cmp("<", K, Ctx.Terms.numeral(1)), true}};
  EXPECT_EQ(Solver.checkLiterals(Lits), SatResult::Unsat);

  const Term *R = Ctx.Terms.apply("r", Sort::Real, {});
  std::vector<TheoryLiteral> RealLits = {
      {cmp(">", R, Ctx.Terms.numeral(0)), true},
      {cmp("<", R, Ctx.Terms.numeral(1)), true}};
  EXPECT_EQ(Solver.checkLiterals(RealLits), SatResult::Sat);

  // Through a disequality split too: k() != 0 && 0 <= k() <= 1 forces
  // k() = 1, and k() != 1 then leaves nothing.
  std::vector<TheoryLiteral> Split = {
      {cmp(">=", K, Ctx.Terms.numeral(0)), true},
      {cmp("<=", K, Ctx.Terms.numeral(1)), true},
      {cmp("=", K, Ctx.Terms.numeral(0)), false},
      {cmp("=", K, Ctx.Terms.numeral(1)), false}};
  EXPECT_EQ(Solver.checkLiterals(Split), SatResult::Unsat);
}

TEST_F(SmtSolverTest, ParityViaScaledEquality) {
  // 2x = 5 has no integer solution.
  const Term *X = intSig("x");
  const Term *TwoX =
      Ctx.Terms.apply("*", Sort::Int, {Ctx.Terms.numeral(2), X});
  EXPECT_EQ(
      Solver.checkLiterals({{cmp("=", TwoX, Ctx.Terms.numeral(5)), true}}),
      SatResult::Unsat);
  EXPECT_EQ(
      Solver.checkLiterals({{cmp("=", TwoX, Ctx.Terms.numeral(6)), true}}),
      SatResult::Sat);
}

TEST_F(SmtSolverTest, NegatedLiterals) {
  // !(x < 5) && x < 4 is unsat.
  const Term *X = intSig("x");
  std::vector<TheoryLiteral> Lits = {
      {cmp("<", X, Ctx.Terms.numeral(5)), false},
      {cmp("<", X, Ctx.Terms.numeral(4)), true}};
  EXPECT_EQ(Solver.checkLiterals(Lits), SatResult::Unsat);
}

TEST_F(SmtSolverTest, DisequalitySplitting) {
  // x != 0 && 0 <= x && x <= 1 forces x = 1 over the integers.
  const Term *X = intSig("x");
  Assignment Model;
  std::vector<TheoryLiteral> Lits = {
      {cmp("=", X, Ctx.Terms.numeral(0)), false},
      {cmp(">=", X, Ctx.Terms.numeral(0)), true},
      {cmp("<=", X, Ctx.Terms.numeral(1)), true}};
  ASSERT_EQ(Solver.checkLiterals(Lits, &Model), SatResult::Sat);
  EXPECT_EQ(Model.at("x").getNumber(), Rational(1));
}

TEST_F(SmtSolverTest, EufPredicateConsistency) {
  // p(x) && !p(y) && x = y is unsat (congruence).
  const Term *X = Ctx.Terms.signal("x", Sort::Opaque);
  const Term *Y = Ctx.Terms.signal("y", Sort::Opaque);
  const Term *PX = Ctx.Terms.apply("p", Sort::Bool, {X});
  const Term *PY = Ctx.Terms.apply("p", Sort::Bool, {Y});
  const Term *Eq = cmp("=", X, Y);
  EXPECT_EQ(Solver.checkLiterals({{PX, true}, {PY, false}, {Eq, true}}),
            SatResult::Unsat);
  EXPECT_EQ(Solver.checkLiterals({{PX, true}, {PY, false}}), SatResult::Sat);
}

TEST_F(SmtSolverTest, EufFunctionCongruenceIntoArithmetic) {
  // x = y && f(x) < f(y) is unsat via congruence + purification.
  const Term *X = intSig("x");
  const Term *Y = intSig("y");
  const Term *FX = Ctx.Terms.apply("f", Sort::Int, {X});
  const Term *FY = Ctx.Terms.apply("f", Sort::Int, {Y});
  std::vector<TheoryLiteral> Lits = {{cmp("=", X, Y), true},
                                     {cmp("<", FX, FY), true}};
  EXPECT_EQ(Solver.checkLiterals(Lits), SatResult::Unsat);
  // Without the equality it is satisfiable.
  EXPECT_EQ(Solver.checkLiterals({{cmp("<", FX, FY), true}}), SatResult::Sat);
}

TEST_F(SmtSolverTest, BooleanSignalAtoms) {
  const Term *P = Ctx.Terms.signal("p", Sort::Bool);
  EXPECT_EQ(Solver.checkLiterals({{P, true}, {P, false}}), SatResult::Unsat);
  EXPECT_EQ(Solver.checkLiterals({{P, true}}), SatResult::Sat);
}

TEST_F(SmtSolverTest, TrueFalseConstants) {
  const Term *T = Ctx.Terms.apply("True", Sort::Bool, {});
  const Term *F = Ctx.Terms.apply("False", Sort::Bool, {});
  EXPECT_EQ(Solver.checkLiterals({{T, true}}), SatResult::Sat);
  EXPECT_EQ(Solver.checkLiterals({{T, false}}), SatResult::Unsat);
  EXPECT_EQ(Solver.checkLiterals({{F, true}}), SatResult::Unsat);
  EXPECT_EQ(Solver.checkLiterals({{F, false}}), SatResult::Sat);
}

TEST_F(SmtSolverTest, FormulaWithBooleanStructure) {
  // (x < 0 || x > 10) && 0 <= x && x <= 10 is unsat.
  const Term *X = intSig("x");
  const Formula *F = Ctx.Formulas.andF(
      {Ctx.Formulas.orF(
           Ctx.Formulas.pred(cmp("<", X, Ctx.Terms.numeral(0))),
           Ctx.Formulas.pred(cmp(">", X, Ctx.Terms.numeral(10)))),
       Ctx.Formulas.pred(cmp(">=", X, Ctx.Terms.numeral(0))),
       Ctx.Formulas.pred(cmp("<=", X, Ctx.Terms.numeral(10)))});
  EXPECT_EQ(Solver.checkFormula(F), SatResult::Unsat);
}

TEST_F(SmtSolverTest, FormulaSatWithModel) {
  const Term *X = intSig("x");
  const Formula *F = Ctx.Formulas.implies(
      Ctx.Formulas.pred(cmp(">", X, Ctx.Terms.numeral(5))),
      Ctx.Formulas.pred(cmp(">", X, Ctx.Terms.numeral(3))));
  EXPECT_EQ(Solver.checkFormula(F), SatResult::Sat);
}

TEST_F(SmtSolverTest, ValidityChecking) {
  // x > 5 -> x > 3 is valid (its negation is unsatisfiable); the
  // converse is not.
  const Term *X = intSig("x");
  const Formula *Valid = Ctx.Formulas.implies(
      Ctx.Formulas.pred(cmp(">", X, Ctx.Terms.numeral(5))),
      Ctx.Formulas.pred(cmp(">", X, Ctx.Terms.numeral(3))));
  EXPECT_EQ(Solver.checkFormula(Ctx.Formulas.toNNF(Ctx.Formulas.notF(Valid))),
            SatResult::Unsat);
  const Formula *Invalid = Ctx.Formulas.implies(
      Ctx.Formulas.pred(cmp(">", X, Ctx.Terms.numeral(3))),
      Ctx.Formulas.pred(cmp(">", X, Ctx.Terms.numeral(5))));
  EXPECT_EQ(
      Solver.checkFormula(Ctx.Formulas.toNNF(Ctx.Formulas.notF(Invalid))),
      SatResult::Sat);
}

TEST_F(SmtSolverTest, IncrementTwiceReachesTwo) {
  // The introduction's assumption: x = 0 -> ((x+1)+1) = 2 is valid.
  const Term *X = intSig("x");
  const Term *Inc1 = Ctx.Terms.apply("+", Sort::Int, {X, Ctx.Terms.numeral(1)});
  const Term *Inc2 =
      Ctx.Terms.apply("+", Sort::Int, {Inc1, Ctx.Terms.numeral(1)});
  const Formula *F = Ctx.Formulas.implies(
      Ctx.Formulas.pred(cmp("=", X, Ctx.Terms.numeral(0))),
      Ctx.Formulas.pred(cmp("=", Inc2, Ctx.Terms.numeral(2))));
  EXPECT_EQ(Solver.checkFormula(Ctx.Formulas.toNNF(Ctx.Formulas.notF(F))),
            SatResult::Unsat);
}

TEST_F(SmtSolverTest, OpaqueEquality) {
  const Term *A = Ctx.Terms.signal("a", Sort::Opaque);
  const Term *B = Ctx.Terms.signal("b", Sort::Opaque);
  const Term *C = Ctx.Terms.signal("c", Sort::Opaque);
  std::vector<TheoryLiteral> Lits = {{cmp("=", A, B), true},
                                     {cmp("=", B, C), true},
                                     {cmp("=", A, C), false}};
  EXPECT_EQ(Solver.checkLiterals(Lits), SatResult::Unsat);
}

TEST_F(SmtSolverTest, RealStrictChainSat) {
  // Vibrato-style: lfoFreq <= 10 && lfoFreq + 1 > 10 is satisfiable.
  const Term *F = realSig("lfoFreq");
  const Term *FPlus1 =
      Ctx.Terms.apply("+", Sort::Real, {F, Ctx.Terms.numeral(1)});
  std::vector<TheoryLiteral> Lits = {
      {cmp("<=", F, Ctx.Terms.numeral(10)), true},
      {cmp(">", FPlus1, Ctx.Terms.numeral(10)), true}};
  EXPECT_EQ(Solver.checkLiterals(Lits), SatResult::Sat);
}

} // namespace
