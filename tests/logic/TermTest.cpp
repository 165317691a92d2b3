//===- tests/logic/TermTest.cpp - Term and TermFactory tests --------------===//

#include "logic/Term.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class TermTest : public ::testing::Test {
protected:
  TermFactory F;
};

TEST_F(TermTest, SignalsAreHashConsed) {
  const Term *A = F.signal("x", Sort::Int);
  const Term *B = F.signal("x", Sort::Int);
  EXPECT_EQ(A, B);
  const Term *Different = F.signal("y", Sort::Int);
  EXPECT_NE(A, Different);
  const Term *DifferentSort = F.signal("x", Sort::Real);
  EXPECT_NE(A, DifferentSort);
}

TEST_F(TermTest, AppliesAreHashConsed) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *One = F.numeral(1);
  const Term *A = F.apply("+", Sort::Int, {X, One});
  const Term *B = F.apply("+", Sort::Int, {X, One});
  EXPECT_EQ(A, B);
  const Term *Flipped = F.apply("+", Sort::Int, {One, X});
  EXPECT_NE(A, Flipped);
}

TEST_F(TermTest, NumeralsOfEqualValueDifferBySort) {
  // Both render "3"; the sort keeps them apart.
  const Term *Int = F.numeral(Rational(3), Sort::Int);
  const Term *Real = F.numeral(Rational(3), Sort::Real);
  EXPECT_EQ(Int->str(), Real->str());
  EXPECT_NE(Int, Real);
  EXPECT_EQ(Real, F.numeral(Rational(3), Sort::Real));
  EXPECT_NE(Real, F.numeral(Rational(7, 2), Sort::Real));
}

TEST_F(TermTest, SignalAndConstantAreDistinct) {
  const Term *Signal = F.signal("k", Sort::Int);
  const Term *Constant = F.apply("k", Sort::Int, {});
  EXPECT_NE(Signal, Constant);
  EXPECT_EQ(Constant, F.apply("k", Sort::Int, {}));
  EXPECT_NE(Constant, F.apply("k", Sort::Real, {}));
  EXPECT_NE(Constant, F.apply("k", Sort::Int, {Signal}));
}

TEST_F(TermTest, NumeralsCarryValues) {
  const Term *N = F.numeral(Rational(7, 2), Sort::Real);
  EXPECT_TRUE(N->isNumeral());
  EXPECT_EQ(N->value(), Rational(7, 2));
  EXPECT_EQ(N->sort(), Sort::Real);
}

TEST_F(TermTest, Str) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *One = F.numeral(1);
  const Term *Sum = F.apply("+", Sort::Int, {X, One});
  EXPECT_EQ(Sum->str(), "(x + 1)");
  const Term *C = F.apply("c10", Sort::Int, {});
  EXPECT_EQ(C->str(), "c10()");
}

TEST_F(TermTest, StrPrefixFunctionCall) {
  // Only builtins print infix; a binary uninterpreted function prints
  // in prefix form.
  const Term *X = F.signal("x", Sort::Int);
  const Term *App = F.apply("foo", Sort::Int, {X, X});
  EXPECT_EQ(App->str(), "(foo x x)");
}

TEST_F(TermTest, Substitute) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *Y = F.signal("y", Sort::Int);
  const Term *Sum = F.apply("+", Sort::Int, {X, F.numeral(1)});
  const Term *Z = F.signal("z", Sort::Int);
  const std::vector<const Term *> Xs = {X}, Ys = {Y}, Zs = {Z};
  const Term *Substituted = F.substitute(Sum, Xs, Ys);
  EXPECT_EQ(Substituted->str(), "(y + 1)");
  // No occurrence: structurally identical result (same pointer).
  EXPECT_EQ(F.substitute(Sum, Zs, Ys), Sum);
}

TEST_F(TermTest, SubstituteNested) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *Inner = F.apply("+", Sort::Int, {X, F.numeral(1)});
  const Term *Outer = F.apply("+", Sort::Int, {Inner, X});
  const Term *Val = F.numeral(5);
  const std::vector<const Term *> Xs = {X}, Vals = {Val};
  const Term *Result = F.substitute(Outer, Xs, Vals);
  EXPECT_EQ(Result->str(), "((5 + 1) + 5)");
}

TEST_F(TermTest, CollectSignals) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *Y = F.signal("y", Sort::Int);
  const Term *T = F.apply("+", Sort::Int, {X, F.apply("-", Sort::Int, {Y, X})});
  std::vector<std::string> Names;
  collectSignals(T, Names);
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "x");
  EXPECT_EQ(Names[1], "y");
}

} // namespace
