//===- tests/theory/SimplexTest.cpp - Simplex solver tests ----------------===//

#include "theory/Simplex.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

LinearExpr var(VarId X) { return LinearExpr::variable(X); }

LinearExpr constant(int64_t C) { return LinearExpr(Rational(C)); }

TEST(Simplex, TrivialSat) {
  Simplex S;
  VarId X = S.addVariable(false);
  // x <= 5.
  EXPECT_TRUE(S.assertAtom({var(X) - constant(5), LinearRel::LE}));
  EXPECT_TRUE(S.check());
  EXPECT_LE(S.value(X), DeltaRational(Rational(5)));
}

TEST(Simplex, ConflictingBounds) {
  Simplex S;
  VarId X = S.addVariable(false);
  EXPECT_TRUE(S.assertAtom({var(X) - constant(5), LinearRel::LE}));
  // x >= 6 conflicts immediately.
  EXPECT_FALSE(S.assertAtom({var(X) - constant(6), LinearRel::GE}));
}

TEST(Simplex, StrictVsWeakBoundary) {
  // x >= 3 && x < 3 is unsat; x >= 3 && x <= 3 is sat.
  {
    Simplex S;
    VarId X = S.addVariable(false);
    EXPECT_TRUE(S.assertAtom({var(X) - constant(3), LinearRel::GE}));
    EXPECT_FALSE(S.assertAtom({var(X) - constant(3), LinearRel::LT}));
  }
  {
    Simplex S;
    VarId X = S.addVariable(false);
    EXPECT_TRUE(S.assertAtom({var(X) - constant(3), LinearRel::GE}));
    EXPECT_TRUE(S.assertAtom({var(X) - constant(3), LinearRel::LE}));
    EXPECT_TRUE(S.check());
    EXPECT_EQ(S.value(X), DeltaRational(Rational(3)));
  }
}

TEST(Simplex, MutexParadoxUnsat) {
  // The Sec. 4.2 example: x < y && y < x is unsatisfiable.
  Simplex S;
  VarId X = S.addVariable(false), Y = S.addVariable(false);
  EXPECT_TRUE(S.assertAtom({var(X) - var(Y), LinearRel::LT}));
  S.assertAtom({var(Y) - var(X), LinearRel::LT});
  EXPECT_FALSE(S.check());
}

TEST(Simplex, ChainOfInequalities) {
  // x < y && y < z && z < x is unsat (needs pivoting, not just bounds).
  Simplex S;
  VarId X = S.addVariable(false), Y = S.addVariable(false),
        Z = S.addVariable(false);
  S.assertAtom({var(X) - var(Y), LinearRel::LT});
  S.assertAtom({var(Y) - var(Z), LinearRel::LT});
  S.assertAtom({var(Z) - var(X), LinearRel::LT});
  EXPECT_FALSE(S.check());
}

TEST(Simplex, SatWithPivoting) {
  // x + y <= 4 && x - y >= 2 && y >= 0 is sat (e.g. x=3, y=0 or x=4,y=0).
  Simplex S;
  VarId X = S.addVariable(false), Y = S.addVariable(false);
  S.assertAtom({var(X) + var(Y) - constant(4), LinearRel::LE});
  S.assertAtom({var(X) - var(Y) - constant(2), LinearRel::GE});
  S.assertAtom({var(Y), LinearRel::GE});
  ASSERT_TRUE(S.check());
  DeltaRational XV = S.value(X);
  DeltaRational YV = S.value(Y);
  EXPECT_LE(XV + YV, DeltaRational(Rational(4)));
  EXPECT_GE(XV - YV, DeltaRational(Rational(2)));
  EXPECT_GE(YV, DeltaRational(Rational(0)));
}

TEST(Simplex, EqualityConstraints) {
  // x + y = 10 && x - y = 4 -> x = 7, y = 3.
  Simplex S;
  VarId X = S.addVariable(false), Y = S.addVariable(false);
  S.assertAtom({var(X) + var(Y) - constant(10), LinearRel::EQ});
  S.assertAtom({var(X) - var(Y) - constant(4), LinearRel::EQ});
  ASSERT_TRUE(S.check());
  EXPECT_EQ(S.value(X), DeltaRational(Rational(7)));
  EXPECT_EQ(S.value(Y), DeltaRational(Rational(3)));
}

TEST(Simplex, GroundAtoms) {
  Simplex S;
  EXPECT_TRUE(S.assertAtom({constant(-1), LinearRel::LE}));
  EXPECT_FALSE(S.assertAtom({constant(1), LinearRel::LE}));
  EXPECT_TRUE(S.assertAtom({constant(0), LinearRel::EQ}));
  EXPECT_FALSE(S.assertAtom({constant(0), LinearRel::LT}));
}

TEST(Simplex, SlacksFollowTheVariables) {
  // A unit single-variable atom bounds the variable itself; any other
  // non-ground atom gets the next id as its slack.
  Simplex S;
  VarId X = S.addVariable(false), Y = S.addVariable(false);
  EXPECT_FALSE(Simplex::needsSlack(constant(3)));
  EXPECT_FALSE(Simplex::needsSlack(var(X) - constant(3)));
  EXPECT_TRUE(Simplex::needsSlack(var(X).scaled(Rational(2))));
  EXPECT_TRUE(Simplex::needsSlack(var(X) - var(Y)));
  S.assertAtom({var(X) - constant(3), LinearRel::LE});
  ASSERT_TRUE(S.check());
  EXPECT_EQ(S.concreteModel().size(), 2u);
  S.assertAtom({var(X) - var(Y), LinearRel::LE});
  ASSERT_TRUE(S.check());
  EXPECT_EQ(S.concreteModel().size(), 3u);
}

TEST(Simplex, FractionalIntDetection) {
  Simplex S;
  VarId X = S.addVariable(/*IsInt=*/true);
  // 2x = 1 forces x = 1/2.
  S.assertAtom({var(X).scaled(Rational(2)) - constant(1), LinearRel::EQ});
  ASSERT_TRUE(S.check());
  auto Fractional = S.fractionalIntVariables();
  ASSERT_EQ(Fractional.size(), 1u);
  EXPECT_EQ(Fractional[0], X);
}

TEST(Simplex, ConcreteModelRespectsStrictBounds) {
  Simplex S;
  VarId X = S.addVariable(false);
  // 0 < x < 1 over the reals.
  S.assertAtom({var(X), LinearRel::GT});
  S.assertAtom({var(X) - constant(1), LinearRel::LT});
  ASSERT_TRUE(S.check());
  auto Model = S.concreteModel();
  ASSERT_EQ(Model.size(), 1u);
  EXPECT_GT(Model[X], Rational(0));
  EXPECT_LT(Model[X], Rational(1));
}

TEST(Simplex, VariableBoundBranching) {
  Simplex S;
  VarId X = S.addVariable(true);
  S.assertAtom({var(X) - constant(10), LinearRel::LE});
  ASSERT_TRUE(S.assertVariableBound(X, /*Upper=*/false,
                                    DeltaRational(Rational(4))));
  ASSERT_TRUE(S.check());
  EXPECT_GE(S.value(X), DeltaRational(Rational(4)));
  EXPECT_FALSE(S.assertVariableBound(X, /*Upper=*/true,
                                     DeltaRational(Rational(3))));
}

TEST(Simplex, CopyIndependence) {
  Simplex S;
  VarId X = S.addVariable(false);
  S.assertAtom({var(X) - constant(5), LinearRel::LE});
  Simplex Copy = S;
  EXPECT_FALSE(Copy.assertAtom({var(X) - constant(6), LinearRel::GE}));
  // Original is unaffected by the copy's conflict.
  EXPECT_TRUE(S.assertAtom({var(X) - constant(5), LinearRel::GE}));
  EXPECT_TRUE(S.check());
}

TEST(Simplex, LargerSystem) {
  // A small flow-style system that exercises repeated pivoting.
  Simplex S;
  VarId A = S.addVariable(false), B = S.addVariable(false),
        C = S.addVariable(false);
  S.assertAtom({var(A) + var(B) + var(C) - constant(10), LinearRel::EQ});
  S.assertAtom({var(A) - var(B), LinearRel::GE});
  S.assertAtom({var(B) - var(C), LinearRel::GE});
  S.assertAtom({var(C) - constant(2), LinearRel::GE});
  ASSERT_TRUE(S.check());
  DeltaRational AV = S.value(A);
  DeltaRational BV = S.value(B);
  DeltaRational CV = S.value(C);
  EXPECT_EQ(AV + BV + CV, DeltaRational(Rational(10)));
  EXPECT_GE(AV, BV);
  EXPECT_GE(BV, CV);
  EXPECT_GE(CV, DeltaRational(Rational(2)));
}

TEST(Simplex, RowsSurviveWideningTheTableau) {
  // x(i+1) >= x(i) + 1 for x0..x19 with x0 >= 0: every atom adds a
  // slack column after rows exist, so the tableau widens several times.
  // x19 <= 19 pins x(i) = i; x19 <= 18 is unsat.
  for (bool Tight : {false, true}) {
    Simplex S;
    std::vector<VarId> X;
    for (int I = 0; I < 20; ++I)
      X.push_back(S.addVariable(false));
    for (int I = 0; I + 1 < 20; ++I)
      ASSERT_TRUE(S.assertAtom({var(X[I]) - var(X[I + 1]) + constant(1),
                                LinearRel::LE}));
    ASSERT_TRUE(S.assertAtom({var(X[0]), LinearRel::GE}));
    ASSERT_TRUE(
        S.assertAtom({var(X[19]) - constant(Tight ? 18 : 19), LinearRel::LE}));
    ASSERT_EQ(S.check(), !Tight);
    if (Tight)
      continue;
    EXPECT_EQ(S.concreteModel().size(), 39u);
    for (int I = 0; I < 20; ++I)
      EXPECT_EQ(S.value(X[I]), DeltaRational(Rational(I)));
  }
}

} // namespace
