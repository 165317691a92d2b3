//===- tests/theory/LinearExprTest.cpp - Linear extraction tests ----------===//

#include "theory/LinearExpr.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace temos;

namespace {

/// The coefficient of \p Var in \p E (zero when absent).
Rational coefficient(const LinearExpr &E, VarId Var) {
  for (const LinearExpr::Entry &Entry : E.entries())
    if (Entry.Var == Var)
      return Entry.Coeff;
  return Rational(0);
}

class LinearExprTest : public ::testing::Test {
protected:
  /// Numbers atomic terms in the order fromTerm asks for them.
  VarId id(const Term *T) {
    auto It = std::find(Asked.begin(), Asked.end(), T);
    if (It != Asked.end())
      return static_cast<VarId>(It - Asked.begin());
    Asked.push_back(T);
    return static_cast<VarId>(Asked.size() - 1);
  }

  TermFactory F;
  std::vector<const Term *> Asked;
  const LinearExpr::VarOf Var = [this](const Term *T) { return id(T); };
};

TEST_F(LinearExprTest, FromSignal) {
  const Term *X = F.signal("x", Sort::Int);
  auto E = LinearExpr::fromTerm(X, Var);
  ASSERT_TRUE(E.has_value());
  ASSERT_EQ(E->entries().size(), 1u);
  EXPECT_EQ(coefficient(*E, id(X)), Rational(1));
  EXPECT_EQ(E->constant(), Rational(0));
}

TEST_F(LinearExprTest, FromSum) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *Y = F.signal("y", Sort::Int);
  const Term *T = F.apply(
      "+", Sort::Int, {F.apply("-", Sort::Int, {X, Y}), F.numeral(3)});
  auto E = LinearExpr::fromTerm(T, Var);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(coefficient(*E, id(X)), Rational(1));
  EXPECT_EQ(coefficient(*E, id(Y)), Rational(-1));
  EXPECT_EQ(E->constant(), Rational(3));
}

TEST_F(LinearExprTest, EntriesSortedByVariable) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *Y = F.signal("y", Sort::Int);
  id(Y); // y is variable 0, x variable 1.
  auto E = LinearExpr::fromTerm(F.apply("+", Sort::Int, {X, Y}), Var);
  ASSERT_TRUE(E.has_value());
  ASSERT_EQ(E->entries().size(), 2u);
  EXPECT_EQ(E->entries()[0].Var, id(Y));
  EXPECT_EQ(E->entries()[1].Var, id(X));
}

TEST_F(LinearExprTest, ScalarMultiplication) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *T = F.apply("*", Sort::Int, {F.numeral(4), X});
  auto E = LinearExpr::fromTerm(T, Var);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(coefficient(*E, id(X)), Rational(4));
}

TEST_F(LinearExprTest, NonlinearRejected) {
  const Term *X = F.signal("x", Sort::Int);
  EXPECT_FALSE(LinearExpr::fromTerm(F.apply("*", Sort::Int, {X, X}), Var));
}

TEST_F(LinearExprTest, CancellationDropsVariables) {
  const Term *X = F.signal("x", Sort::Int);
  auto E = LinearExpr::fromTerm(F.apply("-", Sort::Int, {X, X}), Var);
  ASSERT_TRUE(E.has_value());
  EXPECT_TRUE(E->isConstant());
}

TEST_F(LinearExprTest, PurifiesUninterpretedApplications) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *FX = F.apply("f", Sort::Int, {X});
  const Term *T = F.apply("+", Sort::Int, {FX, F.numeral(1)});
  auto E = LinearExpr::fromTerm(T, Var);
  ASSERT_TRUE(E.has_value());
  // f(x) is one atomic variable; x itself is never asked for.
  ASSERT_EQ(Asked, std::vector<const Term *>{FX});
  EXPECT_EQ(coefficient(*E, id(FX)), Rational(1));
  EXPECT_EQ(E->constant(), Rational(1));
}

TEST_F(LinearExprTest, OpaqueSignalRejected) {
  EXPECT_FALSE(LinearExpr::fromTerm(F.signal("t", Sort::Opaque), Var));
}

TEST_F(LinearExprTest, FromComparison) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *Y = F.signal("y", Sort::Int);
  const Term *Cmp = F.apply("<", Sort::Bool, {X, Y});
  auto A = LinearAtom::fromComparison(Cmp, /*Negated=*/false, Var);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->Rel, LinearRel::LT);
  EXPECT_EQ(coefficient(A->Expr, id(X)), Rational(1));
  EXPECT_EQ(coefficient(A->Expr, id(Y)), Rational(-1));

  auto N = LinearAtom::fromComparison(Cmp, /*Negated=*/true, Var);
  ASSERT_TRUE(N.has_value());
  EXPECT_EQ(N->Rel, LinearRel::GE);
}

TEST_F(LinearExprTest, NegatedEqualityNeedsSplit) {
  const Term *X = F.signal("x", Sort::Int);
  const Term *Eq = F.apply("=", Sort::Bool, {X, F.numeral(0)});
  EXPECT_FALSE(
      LinearAtom::fromComparison(Eq, /*Negated=*/true, Var).has_value());
  EXPECT_TRUE(
      LinearAtom::fromComparison(Eq, /*Negated=*/false, Var).has_value());
}

TEST_F(LinearExprTest, NonComparisonRejected) {
  const Term *X = F.signal("x", Sort::Int);
  EXPECT_FALSE(LinearAtom::fromComparison(X, false, Var).has_value());
  const Term *Sum = F.apply("+", Sort::Int, {X, X});
  EXPECT_FALSE(LinearAtom::fromComparison(Sum, false, Var).has_value());
}

} // namespace
