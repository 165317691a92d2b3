//===- tests/theory/SolverServiceTest.cpp - Solver service cache keys -----===//
///
/// \file
/// What makes two queries the same for the solver service's cache, seen
/// through its hit and miss counts: a literal query is its set of
/// (atom, polarity) pairs, a formula query is its formula node.
///
//===----------------------------------------------------------------------===//

#include "theory/SolverService.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class SolverServiceTest : public ::testing::Test {
protected:
  const Term *lt(const char *A, const char *B) {
    return Ctx.Terms.apply("<", Sort::Bool,
                           {Ctx.Terms.signal(A, Sort::Int),
                            Ctx.Terms.signal(B, Sort::Int)});
  }
  /// Hits and misses since the previous call.
  std::pair<size_t, size_t> traffic() {
    std::pair<size_t, size_t> Now{Svc.cache().hits(), Svc.cache().misses()};
    std::pair<size_t, size_t> Delta{Now.first - Seen.first,
                                    Now.second - Seen.second};
    Seen = Now;
    return Delta;
  }

  Context Ctx;
  SolverService Svc{Theory::LIA};
  std::pair<size_t, size_t> Seen{0, 0};
  const Term *XY = lt("x", "y");
  const Term *YX = lt("y", "x");
};

TEST_F(SolverServiceTest, LiteralOrderSharesOneEntry) {
  // The consistency checker enumerates subsets in mask order while SyGuS
  // verifiers build conjunctions in chain order: one set, one entry.
  EXPECT_EQ(Svc.checkLiterals({{XY, true}, {YX, true}}), SatResult::Unsat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(0), size_t(1)));
  EXPECT_EQ(Svc.checkLiterals({{YX, true}, {XY, true}}), SatResult::Unsat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(1), size_t(0)));
  EXPECT_EQ(Svc.cache().size(), 1u);
}

TEST_F(SolverServiceTest, DuplicateLiteralsShareOneEntry) {
  // {l, l} and {l} are the same conjunction.
  EXPECT_EQ(Svc.checkLiterals({{XY, true}, {XY, true}}), SatResult::Sat);
  EXPECT_EQ(Svc.checkLiterals({{XY, true}}), SatResult::Sat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(1), size_t(1)));
  EXPECT_EQ(Svc.cache().size(), 1u);
}

TEST_F(SolverServiceTest, PolaritiesAreDistinctQueries) {
  // (p, true) and (p, false) are different literals: {x<y, y<x} is
  // Unsat, {x<y, !(y<x)} is Sat.
  EXPECT_EQ(Svc.checkLiterals({{XY, true}}), SatResult::Sat);
  EXPECT_EQ(Svc.checkLiterals({{XY, false}}), SatResult::Sat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(0), size_t(2)));
  EXPECT_EQ(Svc.checkLiterals({{XY, true}, {YX, true}}), SatResult::Unsat);
  EXPECT_EQ(Svc.checkLiterals({{XY, true}, {YX, false}}), SatResult::Sat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(0), size_t(2)));
}

TEST_F(SolverServiceTest, DistinctQueriesNeverShareAnEntry) {
  // Subsets of one literal set, and a formula over the same atoms as a
  // literal set, are different queries; each misses once, then hits.
  FormulaFactory &FF = Ctx.Formulas;
  const Formula *Both = FF.andF(FF.pred(XY), FF.pred(YX));
  const Formula *Either = FF.orF(FF.pred(XY), FF.pred(YX));
  auto AskAll = [&] {
    EXPECT_EQ(Svc.checkLiterals({{XY, true}}), SatResult::Sat);
    EXPECT_EQ(Svc.checkLiterals({{YX, true}}), SatResult::Sat);
    EXPECT_EQ(Svc.checkLiterals({{XY, true}, {YX, true}}), SatResult::Unsat);
    EXPECT_EQ(Svc.checkLiterals({}), SatResult::Sat);
    EXPECT_EQ(Svc.checkFormula(FF.pred(XY)), SatResult::Sat);
    EXPECT_EQ(Svc.checkFormula(Both), SatResult::Unsat);
    EXPECT_EQ(Svc.checkFormula(Either), SatResult::Sat);
  };
  AskAll();
  EXPECT_EQ(traffic(), std::make_pair(size_t(0), size_t(7)));
  AskAll();
  EXPECT_EQ(traffic(), std::make_pair(size_t(7), size_t(0)));
  EXPECT_EQ(Svc.cache().size(), 7u);
}

} // namespace
