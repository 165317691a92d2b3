//===- tests/core/ConsistencyCheckerTest.cpp - Sec. 4.2 tests -------------===//

#include "core/ConsistencyChecker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

using namespace temos;

namespace {

class ConsistencyCheckerTest : public ::testing::Test {
protected:
  const Term *cmp(const char *Op, const Term *A, const Term *B) {
    return Ctx.Terms.apply(Op, Sort::Bool, {A, B});
  }

  Context Ctx;
};

TEST_F(ConsistencyCheckerTest, MutexExample) {
  // The Sec. 4.2 example: predicates x < y and y < x; their conjunction
  // is unsatisfiable, producing G !(x < y && y < x).
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Y = Ctx.Terms.signal("y", Sort::Int);
  std::vector<const Term *> Preds = {cmp("<", X, Y), cmp("<", Y, X)};
  ConsistencyResult R = checkConsistency(Preds, Theory::LIA, Ctx);
  ASSERT_EQ(R.Assumptions.size(), 1u);
  EXPECT_EQ(R.Assumptions[0]->str(), "G ! ((x < y) && (y < x))");
}

TEST_F(ConsistencyCheckerTest, ConsistentPredicatesProduceNothing) {
  // Predicates over different signals: all four polarity combinations
  // are satisfiable. (x < 5 and x > 0 are not such a pair: x >= 5 and
  // x <= 0 contradict each other.)
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Y = Ctx.Terms.signal("y", Sort::Int);
  std::vector<const Term *> Preds = {cmp("<", X, Ctx.Terms.numeral(5)),
                                     cmp(">", Y, Ctx.Terms.numeral(0))};
  ConsistencyResult R = checkConsistency(Preds, Theory::LIA, Ctx);
  EXPECT_TRUE(R.Assumptions.empty());
  // Two single literals per predicate, four mixed pairs.
  EXPECT_EQ(R.SolverQueries, 8u);
}

TEST_F(ConsistencyCheckerTest, MixedPolarityCore) {
  // x <= 10 and x > 10 partition the integers: both true and both false
  // are impossible, so the environment never produces either letter.
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  std::vector<const Term *> Preds = {cmp("<=", X, Ctx.Terms.numeral(10)),
                                     cmp(">", X, Ctx.Terms.numeral(10))};
  ConsistencyResult R = checkConsistency(Preds, Theory::LIA, Ctx);
  ASSERT_EQ(R.Assumptions.size(), 2u);
  EXPECT_EQ(R.Assumptions[0]->str(), "G ! ((x <= 10) && (x > 10))");
  EXPECT_EQ(R.Assumptions[1]->str(), "G ! (! (x <= 10) && ! (x > 10))");
}

TEST_F(ConsistencyCheckerTest, ValidPredicateFoldsToAlways) {
  // x <= x is valid: its negation alone is the core, emitted as G p.
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  std::vector<const Term *> Preds = {cmp("<=", X, X)};
  ConsistencyResult R = checkConsistency(Preds, Theory::LIA, Ctx);
  ASSERT_EQ(R.Assumptions.size(), 1u);
  EXPECT_EQ(R.Assumptions[0]->str(), "G (x <= x)");
}

TEST_F(ConsistencyCheckerTest, WideMasksMatchAcrossThreadCounts) {
  // Two mask bits per predicate: from 17 predicates on the masks pass
  // 32 bits. x > i && !(x > j) is unsat exactly when j < i, so every
  // pair of predicates has one mixed core, including the top ones.
  for (size_t N : {17u, 20u}) {
    const Term *X = Ctx.Terms.signal("x", Sort::Int);
    std::vector<const Term *> Preds;
    for (size_t I = 0; I < N; ++I)
      Preds.push_back(
          cmp(">", X, Ctx.Terms.numeral(static_cast<int64_t>(I))));
    ConsistencyOptions Options;
    Options.MaxSubsetSize = 2;
    // The assumptions, then the query count.
    auto Render = [&](SolverService *Service) {
      ConsistencyResult R =
          checkConsistency(Preds, Theory::LIA, Ctx, Options, Service);
      std::string Out;
      for (const Formula *A : R.Assumptions)
        Out += A->str() + "\n";
      return std::make_pair(Out, R.SolverQueries);
    };
    const auto [Serial, SerialQueries] = Render(nullptr);
    SolverService::Config C;
    C.NumThreads = 4;
    SolverService Parallel(Theory::LIA, C);
    EXPECT_EQ(std::make_pair(Serial, SerialQueries), Render(&Parallel))
        << N << " predicates";
    EXPECT_EQ(std::count(Serial.begin(), Serial.end(), '\n'),
              static_cast<long>(N * (N - 1) / 2));
    const std::string Top = "(x > " + std::to_string(N - 1) + ")";
    EXPECT_NE(Serial.find(Top), std::string::npos) << Serial;
  }
}

TEST_F(ConsistencyCheckerTest, ExpiredDeadlineSkipsEveryCombination) {
  // Past the deadline the sweep asks nothing and emits nothing, and
  // counts every candidate combination as skipped: C(3, k) * 2^k
  // literal combinations of each size k <= 3, none subsumed because no
  // core was found.
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Y = Ctx.Terms.signal("y", Sort::Int);
  const Term *Z = Ctx.Terms.signal("z", Sort::Int);
  std::vector<const Term *> Preds = {cmp("<", X, Y), cmp("<", Y, Z),
                                     cmp("<", Z, X)};
  const size_t Candidates = 3 * 2 + 3 * 4 + 1 * 8;
  const Deadline Expired = Deadline::after(0);
  SolverService::Config C;
  C.NumThreads = 4;
  SolverService Parallel(Theory::LIA, C);
  for (SolverService *Service : {static_cast<SolverService *>(nullptr),
                                 &Parallel}) {
    ConsistencyResult R =
        checkConsistency(Preds, Theory::LIA, Ctx, {}, Service, Expired);
    EXPECT_EQ(R.SolverQueries, 0u);
    EXPECT_TRUE(R.Assumptions.empty());
    EXPECT_EQ(R.DeadlineSkipped, Candidates);
  }
}

TEST_F(ConsistencyCheckerTest, SingleLiteralContradiction) {
  // x < x alone is unsatisfiable.
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  std::vector<const Term *> Preds = {cmp("<", X, X)};
  ConsistencyResult R = checkConsistency(Preds, Theory::LIA, Ctx);
  ASSERT_EQ(R.Assumptions.size(), 1u);
  EXPECT_EQ(R.Assumptions[0]->str(), "G ! (x < x)");
}

TEST_F(ConsistencyCheckerTest, MinimalCoresSuppressSupersets) {
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Y = Ctx.Terms.signal("y", Sort::Int);
  const Term *Z = Ctx.Terms.signal("z", Sort::Int);
  // {x<y, y<x} unsat; adding z<z's companions should not re-report
  // supersets in minimal mode.
  std::vector<const Term *> Preds = {cmp("<", X, Y), cmp("<", Y, X),
                                     cmp("<", Z, Ctx.Terms.numeral(3))};
  ConsistencyOptions Minimal;
  Minimal.MinimalCoresOnly = true;
  ConsistencyResult RMin = checkConsistency(Preds, Theory::LIA, Ctx, Minimal);
  EXPECT_EQ(RMin.Assumptions.size(), 1u);

  ConsistencyOptions Full;
  Full.MinimalCoresOnly = false;
  ConsistencyResult RFull = checkConsistency(Preds, Theory::LIA, Ctx, Full);
  // Powerset mode reports the pair and its two size-3 supersets (with
  // z < 3 and with its negation).
  EXPECT_EQ(RFull.Assumptions.size(), 3u);
  EXPECT_GE(RFull.SolverQueries, RMin.SolverQueries);
}

TEST_F(ConsistencyCheckerTest, ThreeWayCoreNeedsSizeThree) {
  // x < y, y < z, z < x: pairwise consistent, jointly unsat.
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Y = Ctx.Terms.signal("y", Sort::Int);
  const Term *Z = Ctx.Terms.signal("z", Sort::Int);
  std::vector<const Term *> Preds = {cmp("<", X, Y), cmp("<", Y, Z),
                                     cmp("<", Z, X)};
  ConsistencyResult R = checkConsistency(Preds, Theory::LIA, Ctx);
  ASSERT_EQ(R.Assumptions.size(), 1u);
  EXPECT_NE(R.Assumptions[0]->str().find("(x < y)"), std::string::npos);
  EXPECT_NE(R.Assumptions[0]->str().find("(y < z)"), std::string::npos);
  EXPECT_NE(R.Assumptions[0]->str().find("(z < x)"), std::string::npos);
}

TEST_F(ConsistencyCheckerTest, SubsetSizeCap) {
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Y = Ctx.Terms.signal("y", Sort::Int);
  const Term *Z = Ctx.Terms.signal("z", Sort::Int);
  std::vector<const Term *> Preds = {cmp("<", X, Y), cmp("<", Y, Z),
                                     cmp("<", Z, X)};
  ConsistencyOptions Options;
  Options.MaxSubsetSize = 2; // The size-3 core is out of reach.
  ConsistencyResult R = checkConsistency(Preds, Theory::LIA, Ctx, Options);
  EXPECT_TRUE(R.Assumptions.empty());
}

TEST_F(ConsistencyCheckerTest, EmptyPredicateSet) {
  ConsistencyResult R = checkConsistency({}, Theory::LIA, Ctx);
  EXPECT_TRUE(R.Assumptions.empty());
  EXPECT_EQ(R.SolverQueries, 0u);
}

TEST_F(ConsistencyCheckerTest, EqualityChainUnsat) {
  // x = 0 && x = 2 is unsatisfiable: exactly the consistency fact the
  // intro example needs.
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  std::vector<const Term *> Preds = {cmp("=", X, Ctx.Terms.numeral(0)),
                                     cmp("=", X, Ctx.Terms.numeral(2))};
  ConsistencyResult R = checkConsistency(Preds, Theory::LIA, Ctx);
  ASSERT_EQ(R.Assumptions.size(), 1u);
}

} // namespace
