//===- tests/automata/NbaTest.cpp - Direct NBA structure tests ------------===//

#include "automata/Nba.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class NbaTest : public ::testing::Test {
protected:
  /// Guard matching letters where input bit 0 equals \p P.
  LetterConstraint inputIs(bool P) {
    LetterConstraint G;
    G.InputCare = 1;
    G.InputValue = P ? 1 : 0;
    return G;
  }
};

TEST_F(NbaTest, EmptyAutomatonIsEmpty) {
  Nba A;
  EXPECT_FALSE(A.isNonEmpty());
}

TEST_F(NbaTest, AcceptingSelfLoopIsNonEmpty) {
  Nba A;
  uint32_t Q = A.addState();
  A.setInitial(Q);
  A.addTransition(Q, {LetterConstraint{}, Q, /*Accepting=*/true});
  EXPECT_TRUE(A.isNonEmpty());
}

TEST_F(NbaTest, NonAcceptingLoopIsEmpty) {
  Nba A;
  uint32_t Q = A.addState();
  A.setInitial(Q);
  A.addTransition(Q, {LetterConstraint{}, Q, /*Accepting=*/false});
  EXPECT_FALSE(A.isNonEmpty());
}

TEST_F(NbaTest, AcceptingTransitionOutsideCycleIsEmpty) {
  // q0 --accepting--> q1 (dead end): no lasso.
  Nba A;
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState();
  A.setInitial(Q0);
  A.addTransition(Q0, {LetterConstraint{}, Q1, /*Accepting=*/true});
  EXPECT_FALSE(A.isNonEmpty());
}

TEST_F(NbaTest, ReachableAcceptingCycle) {
  // q0 -> q1 <-> q2 with the q1->q2 edge accepting.
  Nba A;
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState();
  uint32_t Q2 = A.addState();
  A.setInitial(Q0);
  A.addTransition(Q0, {LetterConstraint{}, Q1, false});
  A.addTransition(Q1, {LetterConstraint{}, Q2, true});
  A.addTransition(Q2, {LetterConstraint{}, Q1, false});
  EXPECT_TRUE(A.isNonEmpty());
}

TEST_F(NbaTest, UnreachableAcceptingCycleIsEmpty) {
  Nba A;
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState(); // Unreachable from Q0.
  A.setInitial(Q0);
  A.addTransition(Q1, {LetterConstraint{}, Q1, true});
  EXPECT_FALSE(A.isNonEmpty());
}

TEST_F(NbaTest, LiveStates) {
  // q0 -> q1 --accepting--> q1; q2 isolated.
  Nba A;
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState();
  uint32_t Q2 = A.addState();
  A.addTransition(Q0, {LetterConstraint{}, Q1, false});
  A.addTransition(Q1, {LetterConstraint{}, Q1, true});
  (void)Q2;
  auto Live = A.liveStates();
  ASSERT_EQ(Live.size(), 3u);
  EXPECT_TRUE(Live[Q0]);
  EXPECT_TRUE(Live[Q1]);
  EXPECT_FALSE(Live[Q2]);
}

TEST_F(NbaTest, GuardInputBits) {
  // Only the cared-for bit decides; the others are free.
  const std::vector<unsigned> NoChoices;
  EXPECT_TRUE(inputIs(true).matches(/*InputBits=*/1, NoChoices));
  EXPECT_TRUE(inputIs(true).matches(/*InputBits=*/3, NoChoices));
  EXPECT_FALSE(inputIs(true).matches(/*InputBits=*/0, NoChoices));
  EXPECT_TRUE(inputIs(false).matches(/*InputBits=*/2, NoChoices));
  EXPECT_FALSE(inputIs(false).matches(/*InputBits=*/1, NoChoices));
}

TEST_F(NbaTest, GuardUpdateRequirements) {
  // Guard requiring cell 0's option 0 positively, and one forbidding it.
  LetterConstraint Want;
  Want.Updates.push_back({0, 0, true});
  LetterConstraint Forbid;
  Forbid.Updates.push_back({0, 0, false});

  std::vector<unsigned> Choice0 = {0};
  std::vector<unsigned> Choice1 = {1};
  EXPECT_TRUE(Want.matches(0, Choice0));
  EXPECT_FALSE(Want.matches(0, Choice1));
  EXPECT_FALSE(Forbid.matches(0, Choice0));
  EXPECT_TRUE(Forbid.matches(0, Choice1));
}

} // namespace
