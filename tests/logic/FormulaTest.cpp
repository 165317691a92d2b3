//===- tests/logic/FormulaTest.cpp - Formula factory and NNF tests --------===//

#include "logic/Formula.h"
#include "logic/Traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace temos;

namespace {

class FormulaTest : public ::testing::Test {
protected:
  const Formula *atom(const std::string &Name) {
    return FF.pred(TF.signal(Name, Sort::Bool));
  }

  TermFactory TF;
  FormulaFactory FF;
};

TEST_F(FormulaTest, HashConsing) {
  const Formula *A = atom("a");
  const Formula *B = atom("b");
  EXPECT_EQ(FF.andF(A, B), FF.andF(A, B));
  EXPECT_NE(FF.andF(A, B), FF.andF(B, A));
  EXPECT_EQ(FF.until(A, B), FF.until(A, B));
}

TEST_F(FormulaTest, AndSimplifications) {
  const Formula *A = atom("a");
  EXPECT_EQ(FF.andF(A, FF.trueF()), A);
  EXPECT_EQ(FF.andF(A, FF.falseF()), FF.falseF());
  EXPECT_EQ(FF.andF(std::vector<const Formula *>{}), FF.trueF());
  // Nested Ands flatten.
  const Formula *B = atom("b");
  const Formula *C = atom("c");
  const Formula *Nested = FF.andF(FF.andF(A, B), C);
  EXPECT_EQ(Nested->children().size(), 3u);
  // Duplicates collapse.
  EXPECT_EQ(FF.andF(A, A), A);
}

TEST_F(FormulaTest, OrSimplifications) {
  const Formula *A = atom("a");
  EXPECT_EQ(FF.orF(A, FF.falseF()), A);
  EXPECT_EQ(FF.orF(A, FF.trueF()), FF.trueF());
  EXPECT_EQ(FF.orF(std::vector<const Formula *>{}), FF.falseF());
}

TEST_F(FormulaTest, DoubleNegationCollapses) {
  const Formula *A = atom("a");
  EXPECT_EQ(FF.notF(FF.notF(A)), A);
  EXPECT_EQ(FF.notF(FF.trueF()), FF.falseF());
}

TEST_F(FormulaTest, UpdateAtom) {
  const Term *X = TF.signal("x", Sort::Int);
  const Term *Inc = TF.apply("+", Sort::Int, {X, TF.numeral(1)});
  const Formula *U = FF.update("x", Inc);
  EXPECT_TRUE(U->is(Formula::Kind::Update));
  EXPECT_EQ(U->cell(), "x");
  EXPECT_EQ(U->updateValue(), Inc);
  EXPECT_EQ(U->str(), "[x <- (x + 1)]");
}

TEST_F(FormulaTest, UpdateAndPredicateOfEqualRenderingAreDistinct) {
  const Formula *Update = FF.update("c", TF.signal("t", Sort::Int));
  const Formula *Pred = FF.pred(TF.signal("[c <- t]", Sort::Bool));
  EXPECT_EQ(Update->str(), Pred->str());
  EXPECT_NE(Update, Pred);
  EXPECT_EQ(Update, FF.update("c", TF.signal("t", Sort::Int)));
}

TEST_F(FormulaTest, ConcurrentInterningKeepsOneNodePerStructure) {
  // Four threads intern the same structures, each in its own order. Every
  // structure gets one node, and the formula ids are 0..n-1, once each.
  constexpr int Count = 300;
  constexpr int Threads = 4;
  // Results by structure, whatever order a thread built them in.
  std::vector<std::vector<const Formula *>> Built(
      Threads, std::vector<const Formula *>(3 * Count));
  std::vector<std::vector<const Term *>> Terms(
      Threads, std::vector<const Term *>(Count));
  std::vector<std::thread> Workers;
  for (int W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      const Term *X = TF.signal("x", Sort::Int);
      for (int J = 0; J < Count; ++J) {
        const int I = W % 2 ? Count - 1 - J : J;
        const Term *Lt = TF.apply("<", Sort::Bool, {X, TF.numeral(I)});
        const Formula *P = FF.pred(Lt);
        const Formula *N = FF.next(P);
        Terms[W][I] = Lt;
        Built[W][3 * I] = P;
        Built[W][3 * I + 1] = N;
        Built[W][3 * I + 2] = FF.andF(P, N);
      }
    });
  for (std::thread &T : Workers)
    T.join();
  for (int W = 1; W < Threads; ++W) {
    EXPECT_EQ(Built[W], Built[0]);
    EXPECT_EQ(Terms[W], Terms[0]);
  }
  // x, the numerals 0..Count-1 and one comparison per numeral.
  EXPECT_EQ(TF.size(), size_t(1 + 2 * Count));
  ASSERT_EQ(FF.size(), size_t(3 * Count));
  std::vector<unsigned> Ids;
  for (const Formula *F : Built[0])
    Ids.push_back(F->id());
  std::sort(Ids.begin(), Ids.end());
  for (unsigned I = 0; I < Ids.size(); ++I)
    EXPECT_EQ(Ids[I], I);
}

TEST_F(FormulaTest, Str) {
  const Formula *A = atom("a");
  const Formula *B = atom("b");
  EXPECT_EQ(FF.globally(FF.implies(A, FF.finallyF(B)))->str(),
            "G (a -> F b)");
  EXPECT_EQ(FF.until(A, B)->str(), "(a U b)");
}

TEST_F(FormulaTest, SizeCountsNodes) {
  const Formula *A = atom("a");
  const Formula *B = atom("b");
  // G(a -> F b): G, ->, a, F, b = 5 nodes.
  EXPECT_EQ(FF.globally(FF.implies(A, FF.finallyF(B)))->size(), 5u);
}

TEST_F(FormulaTest, NNFPushesNegationThroughAnd) {
  const Formula *A = atom("a");
  const Formula *B = atom("b");
  const Formula *F = FF.notF(FF.andF(A, B));
  const Formula *N = FF.toNNF(F);
  EXPECT_EQ(N, FF.orF(FF.notF(A), FF.notF(B)));
}

TEST_F(FormulaTest, NNFEliminatesImplies) {
  const Formula *A = atom("a");
  const Formula *B = atom("b");
  EXPECT_EQ(FF.toNNF(FF.implies(A, B)), FF.orF(FF.notF(A), B));
}

TEST_F(FormulaTest, NNFIff) {
  const Formula *A = atom("a");
  const Formula *B = atom("b");
  const Formula *N = FF.toNNF(FF.iff(A, B));
  EXPECT_EQ(N, FF.orF(FF.andF(A, B), FF.andF(FF.notF(A), FF.notF(B))));
  const Formula *NegN = FF.toNNF(FF.notF(FF.iff(A, B)));
  EXPECT_EQ(NegN, FF.orF(FF.andF(A, FF.notF(B)), FF.andF(FF.notF(A), B)));
}

TEST_F(FormulaTest, NNFTemporalDuals) {
  const Formula *A = atom("a");
  const Formula *B = atom("b");
  EXPECT_EQ(FF.toNNF(FF.notF(FF.globally(A))), FF.finallyF(FF.notF(A)));
  EXPECT_EQ(FF.toNNF(FF.notF(FF.finallyF(A))), FF.globally(FF.notF(A)));
  EXPECT_EQ(FF.toNNF(FF.notF(FF.next(A))), FF.next(FF.notF(A)));
  EXPECT_EQ(FF.toNNF(FF.notF(FF.until(A, B))),
            FF.release(FF.notF(A), FF.notF(B)));
  EXPECT_EQ(FF.toNNF(FF.notF(FF.release(A, B))),
            FF.until(FF.notF(A), FF.notF(B)));
}

TEST_F(FormulaTest, NNFWeakUntilNegation) {
  const Formula *A = atom("a");
  const Formula *B = atom("b");
  // !(a W b) === !b U (!a && !b).
  EXPECT_EQ(FF.toNNF(FF.notF(FF.weakUntil(A, B))),
            FF.until(FF.notF(B), FF.andF(FF.notF(A), FF.notF(B))));
}

TEST_F(FormulaTest, NNFIsIdempotent) {
  const Formula *A = atom("a");
  const Formula *B = atom("b");
  const Formula *F = FF.notF(
      FF.implies(FF.globally(A), FF.until(A, FF.notF(FF.andF(A, B)))));
  const Formula *N = FF.toNNF(F);
  EXPECT_EQ(FF.toNNF(N), N);
}

TEST_F(FormulaTest, CollectPredicateTerms) {
  const Term *P = TF.signal("p", Sort::Bool);
  const Term *Q = TF.signal("q", Sort::Bool);
  const Formula *F =
      FF.andF(FF.pred(P), FF.globally(FF.orF(FF.pred(Q), FF.pred(P))));
  auto Preds = collectPredicateTerms(F);
  ASSERT_EQ(Preds.size(), 2u);
  EXPECT_EQ(Preds[0], P);
  EXPECT_EQ(Preds[1], Q);
}

TEST_F(FormulaTest, CollectUpdateTerms) {
  const Term *X = TF.signal("x", Sort::Int);
  const Formula *U1 = FF.update("x", TF.apply("+", Sort::Int, {X, TF.numeral(1)}));
  const Formula *U2 = FF.update("x", X);
  const Formula *F = FF.globally(FF.orF(U1, FF.andF(U2, U1)));
  auto Updates = collectUpdateTerms(F);
  ASSERT_EQ(Updates.size(), 2u);
  EXPECT_EQ(Updates[0], U1);
  EXPECT_EQ(Updates[1], U2);
}

} // namespace
