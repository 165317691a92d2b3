//===- tests/sygus/SygusSolverTest.cpp - SyGuS solver tests ---------------===//

#include "sygus/SygusSolver.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class SygusSolverTest : public ::testing::Test {
protected:
  const Term *X() { return Ctx.Terms.signal("x", Sort::Int); }
  const Term *num(int64_t N) { return Ctx.Terms.numeral(N); }
  const Term *cmp(const char *Op, const Term *A, const Term *B) {
    return Ctx.Terms.apply(Op, Sort::Bool, {A, B});
  }
  const Term *inc(const Term *T) {
    return Ctx.Terms.apply("+", Sort::Int, {T, num(1)});
  }
  const Term *dec(const Term *T) {
    return Ctx.Terms.apply("-", Sort::Int, {T, num(1)});
  }

  /// The introduction's counter query: cell x with updates x+1 and x-1.
  SygusQuery counterQuery() {
    SygusQuery Q;
    Q.Cells = {{"x", Sort::Int, {inc(X()), dec(X())}}};
    return Q;
  }

  Context Ctx;
};

TEST_F(SygusSolverTest, IntroExampleTwoIncrements) {
  // x = 0 must reach x = 2 in exactly two steps: [x<-x+1];[x<-x+1].
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp("=", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(2)), true}};
  auto P = Solver.synthesizeSequential(Solver.searchSpace(Q), 2);
  ASSERT_TRUE(P.has_value());
  ASSERT_EQ(P->Steps.size(), 2u);
  EXPECT_EQ(P->Steps[0].at("x")->str(), "(x + 1)");
  EXPECT_EQ(P->Steps[1].at("x")->str(), "(x + 1)");
}

TEST_F(SygusSolverTest, ExampleFourTwoHeightTwoIdentity) {
  // Example 4.2: x = 0 -> X X (x = 0) with exactly two steps; the
  // first verifying candidate is (+1 then -1).
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp("=", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(0)), true}};
  auto P = Solver.synthesizeSequential(Solver.searchSpace(Q), 2);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Steps[0].at("x")->str(), "(x + 1)");
  EXPECT_EQ(P->Steps[1].at("x")->str(), "(x - 1)");
}

TEST_F(SygusSolverTest, ExclusionForcesDifferentProgram) {
  // Example 4.6's refinement: exclude (+1,+1); with updates {+1, skip}
  // reaching x=2 from x=0 needs a different interleaving.
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q;
  Q.Cells = {{"x", Sort::Int, {inc(X()), X()}}}; // x+1 or skip.
  Q.Pre = {{cmp("=", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(2)), true}};

  auto First = Solver.synthesizeSequential(Solver.searchSpace(Q), 3);
  ASSERT_TRUE(First.has_value());
  auto Second = Solver.synthesizeSequential(Solver.searchSpace(Q), 3, {*First});
  ASSERT_TRUE(Second.has_value());
  EXPECT_FALSE(*First == *Second);
  // Both must still verify.
  EXPECT_TRUE(Solver.verifySequential(Q, *First));
  EXPECT_TRUE(Solver.verifySequential(Q, *Second));
}

TEST_F(SygusSolverTest, UnsolvableObligationReturnsNothing) {
  // From x = 0, two increments can never give x = 5.
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp("=", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(5)), true}};
  EXPECT_FALSE(Solver.synthesizeSequential(Solver.searchSpace(Q), 2).has_value());
}

TEST_F(SygusSolverTest, UpToSearchFindsShortest) {
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp("=", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(3)), true}};
  auto P = Solver.synthesizeSequentialUpTo(Solver.searchSpace(Q), 4);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Steps.size(), 3u);
}

TEST_F(SygusSolverTest, VerificationIsUniversal) {
  // Pre x > 0, post x > 1 after one +1 step: holds for ALL x > 0, so
  // verification must pass; post x > 5 must fail (x = 1 counterexample).
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp(">", X(), num(0)), true}};
  Q.Post = {{cmp(">", X(), num(1)), true}};
  SequentialProgram OneInc;
  OneInc.Steps = {{{"x", inc(X())}}};
  EXPECT_TRUE(Solver.verifySequential(Q, OneInc));
  Q.Post = {{cmp(">", X(), num(5)), true}};
  EXPECT_FALSE(Solver.verifySequential(Q, OneInc));
}

TEST_F(SygusSolverTest, MultiCellObligation) {
  // CFS-style: vr1 < vr2 must flip to vr2 <= vr1 by repeatedly adding
  // weight to vr1... in one step from equality-distance 1.
  const Term *V1 = Ctx.Terms.signal("vr1", Sort::Int);
  const Term *V2 = Ctx.Terms.signal("vr2", Sort::Int);
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q;
  Q.Cells = {
      {"vr1", Sort::Int, {Ctx.Terms.apply("+", Sort::Int, {V1, num(1)}), V1}},
      {"vr2", Sort::Int, {Ctx.Terms.apply("+", Sort::Int, {V2, num(1)}), V2}},
  };
  Q.Pre = {{cmp("=", V1, V2), true}};
  Q.Post = {{cmp("<", V2, V1), true}};
  auto P = Solver.synthesizeSequential(Solver.searchSpace(Q), 1);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Steps[0].at("vr1")->str(), "(vr1 + 1)");
  EXPECT_EQ(P->Steps[0].at("vr2")->str(), "vr2");
}

TEST_F(SygusSolverTest, LoopSynthesisExampleFourFive) {
  // Example 4.5: from x < 0 reach x = 0; loop body [x <- x + 1].
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp("<", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(0)), true}};
  auto L = Solver.synthesizeLoop(Solver.searchSpace(Q));
  ASSERT_TRUE(L.has_value());
  ASSERT_EQ(L->Body.size(), 1u);
  EXPECT_EQ(L->Body[0].at("x")->str(), "(x + 1)");
}

TEST_F(SygusSolverTest, LoopSynthesisDirectionMatters) {
  // From x > 0 reach x = 0: body must be the decrement.
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp(">", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(0)), true}};
  auto L = Solver.synthesizeLoop(Solver.searchSpace(Q));
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->Body[0].at("x")->str(), "(x - 1)");
}

TEST_F(SygusSolverTest, LoopExclusion) {
  // vruntime-style: from vr1 < vr2, make vr2 <= vr1 by bumping vr1.
  const Term *V1 = Ctx.Terms.signal("vr1", Sort::Int);
  const Term *V2 = Ctx.Terms.signal("vr2", Sort::Int);
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q;
  Q.Cells = {
      {"vr1", Sort::Int, {Ctx.Terms.apply("+", Sort::Int, {V1, num(1)}), V1}},
      {"vr2", Sort::Int, {V2}},
  };
  Q.Pre = {{cmp("<", V1, V2), true}};
  Q.Post = {{cmp("<=", V2, V1), true}};
  auto L = Solver.synthesizeLoop(Solver.searchSpace(Q));
  ASSERT_TRUE(L.has_value());
  ASSERT_EQ(L->Body.size(), 1u);
  EXPECT_EQ(L->Body[0].at("vr1")->str(), "(vr1 + 1)");
  // Bodies are single steps, and the only other one (stutter) makes no
  // progress: excluding the increment leaves no loop at all, which is
  // the refinement loop's drop path (Alg. 4).
  EXPECT_FALSE(Solver.synthesizeLoop(Solver.searchSpace(Q), {*L}).has_value());
}

TEST_F(SygusSolverTest, SamplePreModelsSatisfyPre) {
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp("<", X(), num(0)), true}};
  auto Samples = Solver.samplePreModels(Q);
  ASSERT_FALSE(Samples.empty());
  Evaluator E;
  for (const Assignment &Sample : Samples) {
    auto V = E.evaluateBool(cmp("<", X(), num(0)), Sample);
    ASSERT_TRUE(V.has_value());
    EXPECT_TRUE(*V);
  }
}

TEST_F(SygusSolverTest, UninterpretedFunctionObligation) {
  // Example 4.3 (plain TSL = TSL-MT over UF): cell y with updates
  // {y, x}; obligation p(x) -> p(y') in one step. Only [y <- x] works.
  const Term *XSig = Ctx.Terms.signal("x", Sort::Opaque);
  const Term *YSig = Ctx.Terms.signal("y", Sort::Opaque);
  const Term *PX = Ctx.Terms.apply("p", Sort::Bool, {XSig});
  const Term *PY = Ctx.Terms.apply("p", Sort::Bool, {YSig});
  SygusSolver Solver(Ctx, Theory::UF);
  SygusQuery Q;
  Q.Cells = {{"y", Sort::Opaque, {YSig, XSig}}};
  Q.Pre = {{PX, true}};
  Q.Post = {{PY, true}};
  auto P = Solver.synthesizeSequential(Solver.searchSpace(Q), 1);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Steps[0].at("y")->str(), "x");
}

TEST_F(SygusSolverTest, StatsAreReported) {
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp("=", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(2)), true}};
  SygusStats Stats;
  auto P = Solver.synthesizeSequential(Solver.searchSpace(Q), 2, {}, &Stats);
  ASSERT_TRUE(P.has_value());
  EXPECT_GT(Stats.CandidatesTried, 0u);
}

TEST_F(SygusSolverTest, LoopRankingRejectsInputChasing) {
  // A loop whose post-condition depends on a free environment input is
  // invalid (the input can run away); the ranking check must reject it
  // even though fixed-input sampling would accept.
  const Term *Ball = Ctx.Terms.signal("ball", Sort::Int);
  const Term *Paddle = Ctx.Terms.signal("paddle", Sort::Int);
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q;
  Q.Cells = {{"paddle", Sort::Int,
              {Ctx.Terms.apply("+", Sort::Int, {Paddle, num(1)})}}};
  Q.Pre = {{cmp("<", Paddle, Ball), true}};
  Q.Post = {{cmp("<", Paddle, Ball), false}}; // eventually !(paddle < ball)
  std::vector<StepChoice> Body = {
      {{"paddle", Ctx.Terms.apply("+", Sort::Int, {Paddle, num(1)})}}};
  EXPECT_FALSE(Solver.verifyLoopRanking(Q, Body));
  EXPECT_FALSE(Solver.synthesizeLoop(Solver.searchSpace(Q)).has_value());
}

TEST_F(SygusSolverTest, LoopRankingAcceptsCellOnlyMilestone) {
  // Post over cells only: paddle >= 9 is reached by incrementing no
  // matter what the environment does (tier-1 global progress).
  const Term *Paddle = Ctx.Terms.signal("paddle", Sort::Int);
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q;
  Q.Cells = {{"paddle", Sort::Int,
              {Ctx.Terms.apply("+", Sort::Int, {Paddle, num(1)}), Paddle}}};
  Q.Pre = {{cmp("<", Paddle, num(9)), true}};
  Q.Post = {{cmp(">=", Paddle, num(9)), true}};
  auto L = Solver.synthesizeLoop(Solver.searchSpace(Q));
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->Body[0].at("paddle")->str(), "(paddle + 1)");
}

TEST_F(SygusSolverTest, LoopRankingTierTwoEqualityTarget) {
  // Example 4.5 again, but checking the ranking path directly: the
  // equality target x = 0 needs the pre-invariant tier (x < 0 is
  // inductive until the post).
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q = counterQuery();
  Q.Pre = {{cmp("<", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(0)), true}};
  std::vector<StepChoice> IncBody = {{{"x", inc(X())}}};
  std::vector<StepChoice> DecBody = {{{"x", dec(X())}}};
  EXPECT_TRUE(Solver.verifyLoopRanking(Q, IncBody));
  EXPECT_FALSE(Solver.verifyLoopRanking(Q, DecBody));
}

TEST_F(SygusSolverTest, SequentialVerificationHavocsInputs) {
  // [x <- x + a] twice reaches x = 2a only if a is rigid; with a free
  // input a per step the chain is invalid and must be rejected.
  const Term *A = Ctx.Terms.signal("a", Sort::Int);
  const Term *PlusA = Ctx.Terms.apply("+", Sort::Int, {X(), A});
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q;
  Q.Cells = {{"x", Sort::Int, {PlusA}}};
  Q.Pre = {{cmp("=", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(),
                 Ctx.Terms.apply("*", Sort::Int, {num(2), A})),
             true}};
  SequentialProgram Twice;
  Twice.Steps = {{{"x", PlusA}}, {{"x", PlusA}}};
  EXPECT_FALSE(Solver.verifySequential(Q, Twice));
}

TEST_F(SygusSolverTest, AmbientFactsEnableVerification) {
  // With the ambient fact a = 1 the same chain verifies against the
  // concrete target x = 2 (ambient facts hold at every step).
  const Term *A = Ctx.Terms.signal("a", Sort::Int);
  const Term *PlusA = Ctx.Terms.apply("+", Sort::Int, {X(), A});
  SygusSolver Solver(Ctx, Theory::LIA);
  SygusQuery Q;
  Q.Cells = {{"x", Sort::Int, {PlusA}}};
  Q.Pre = {{cmp("=", X(), num(0)), true}};
  Q.Post = {{cmp("=", X(), num(2)), true}};
  SequentialProgram Twice;
  Twice.Steps = {{{"x", PlusA}}, {{"x", PlusA}}};
  EXPECT_FALSE(Solver.verifySequential(Q, Twice));
  Q.Ambient = {{cmp("=", A, num(1)), true}};
  EXPECT_TRUE(Solver.verifySequential(Q, Twice));
}

} // namespace
