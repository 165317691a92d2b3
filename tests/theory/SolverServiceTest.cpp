//===- tests/theory/SolverServiceTest.cpp - Solver service table ----------===//
///
/// \file
/// The solver service's verdict table, seen through its public API:
/// what makes two queries the same (a literal query is its set of
/// (atom, polarity) pairs, a formula query is its formula node), that
/// concurrent askers compute each key once, that a throwing query
/// leaves no claim behind, and the drop at DefaultCapacity.
///
//===----------------------------------------------------------------------===//

#include "theory/SolverService.h"

#include <gtest/gtest.h>

#include <array>

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
    std::pair<size_t, size_t> Now{Svc.hits(), Svc.misses()};
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
  EXPECT_EQ(Svc.size(), 1u);
}

TEST_F(SolverServiceTest, DuplicateLiteralsShareOneEntry) {
  // {l, l} and {l} are the same conjunction.
  EXPECT_EQ(Svc.checkLiterals({{XY, true}, {XY, true}}), SatResult::Sat);
  EXPECT_EQ(Svc.checkLiterals({{XY, true}}), SatResult::Sat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(1), size_t(1)));
  EXPECT_EQ(Svc.size(), 1u);
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
  EXPECT_EQ(Svc.size(), 7u);
}

TEST_F(SolverServiceTest, ConcurrentAsksComputeEachKeyOnce) {
  // 256 asks over 16 literal sets from four workers: whoever asks a
  // claimed key waits for its verdict and counts a hit, so each set
  // misses exactly once whatever the timing.
  const std::array<TheoryLiteral, 4> Pool = {
      {{XY, true}, {YX, true}, {lt("y", "z"), true}, {lt("z", "x"), true}}};
  std::vector<std::vector<TheoryLiteral>> Sets(16);
  std::vector<SatResult> Direct;
  SmtSolver Solver(Theory::LIA);
  for (size_t Mask = 0; Mask < Sets.size(); ++Mask) {
    for (size_t I = 0; I < Pool.size(); ++I)
      if (Mask & (size_t(1) << I))
        Sets[Mask].push_back(Pool[I]);
    Direct.push_back(Solver.checkLiterals(Sets[Mask]));
  }
  SolverService::Config C;
  C.NumThreads = 4;
  SolverService Parallel(Theory::LIA, C);
  std::vector<SatResult> Verdicts(256);
  Parallel.pool().forEach(Verdicts.size(), [&](size_t I) {
    Verdicts[I] = Parallel.checkLiterals(Sets[I % Sets.size()]);
  });
  for (size_t I = 0; I < Verdicts.size(); ++I)
    EXPECT_EQ(Verdicts[I], Direct[I % Sets.size()]) << I;
  EXPECT_EQ(Parallel.misses(), 16u);
  EXPECT_EQ(Parallel.hits(), 240u);
  EXPECT_EQ(Parallel.size(), 16u);
}

TEST_F(SolverServiceTest, ThrowingQueryReleasesItsClaim) {
  // The solver polls the deadline before any work, so an expired one
  // always throws; the claim goes with it and nothing is stored.
  const Formula *F = Ctx.Formulas.pred(XY);
  Svc.setDeadline(Deadline::after(0));
  EXPECT_THROW(Svc.checkFormula(F), DeadlineExpired);
  EXPECT_EQ(traffic(), std::make_pair(size_t(0), size_t(1)));
  EXPECT_EQ(Svc.size(), 0u);
  // No stale claim: the next ask misses once and answers.
  Svc.setDeadline({});
  EXPECT_EQ(Svc.checkFormula(F), SatResult::Sat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(0), size_t(1)));
  EXPECT_EQ(Svc.checkFormula(F), SatResult::Sat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(1), size_t(0)));
  EXPECT_EQ(Svc.size(), 1u);
}

TEST_F(SolverServiceTest, DropsStoredVerdictsAtCapacity) {
  // Storing verdict DefaultCapacity + 1 first drops the other
  // DefaultCapacity; the counts survive the drop (the pipeline's per-run
  // deltas subtract snapshots of them).
  const size_t Cap = SolverService::DefaultCapacity;
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  auto Ask = [&](size_t I) {
    const Term *Atom = Ctx.Terms.apply(
        "<", Sort::Bool, {X, Ctx.Terms.numeral(static_cast<int64_t>(I))});
    return Svc.checkLiterals({{Atom, true}});
  };
  size_t NotSat = 0;
  for (size_t I = 0; I <= Cap; ++I)
    NotSat += Ask(I) != SatResult::Sat;
  EXPECT_EQ(NotSat, 0u);
  EXPECT_EQ(Svc.size(), 1u);
  EXPECT_EQ(traffic(), std::make_pair(size_t(0), Cap + 1));
  // The newest verdict stayed, the oldest went.
  EXPECT_EQ(Ask(Cap), SatResult::Sat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(1), size_t(0)));
  EXPECT_EQ(Ask(0), SatResult::Sat);
  EXPECT_EQ(traffic(), std::make_pair(size_t(0), size_t(1)));
  EXPECT_EQ(Svc.size(), 2u);
}

} // namespace
