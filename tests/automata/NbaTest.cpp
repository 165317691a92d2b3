//===- tests/automata/NbaTest.cpp - Direct NBA structure tests ------------===//

#include "automata/Nba.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class NbaTest : public ::testing::Test {
protected:
  /// Adds an edge reading every letter: no input bit cared for, output
  /// mask all ones.
  static void addEdge(Nba &A, uint32_t From, uint32_t To, bool Accepting) {
    const uint64_t All = ~uint64_t(0);
    A.addEdge(From, {To, Accepting, 0, 0}, &All);
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
  addEdge(A, Q, Q, /*Accepting=*/true);
  EXPECT_TRUE(A.isNonEmpty());
}

TEST_F(NbaTest, NonAcceptingLoopIsEmpty) {
  Nba A;
  uint32_t Q = A.addState();
  A.setInitial(Q);
  addEdge(A, Q, Q, /*Accepting=*/false);
  EXPECT_FALSE(A.isNonEmpty());
}

TEST_F(NbaTest, AcceptingTransitionOutsideCycleIsEmpty) {
  // q0 --accepting--> q1 (dead end): no lasso.
  Nba A;
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState();
  A.setInitial(Q0);
  addEdge(A, Q0, Q1, /*Accepting=*/true);
  EXPECT_FALSE(A.isNonEmpty());
}

TEST_F(NbaTest, ReachableAcceptingCycle) {
  // q0 -> q1 <-> q2 with the q1->q2 edge accepting.
  Nba A;
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState();
  uint32_t Q2 = A.addState();
  A.setInitial(Q0);
  addEdge(A, Q0, Q1, false);
  addEdge(A, Q1, Q2, true);
  addEdge(A, Q2, Q1, false);
  EXPECT_TRUE(A.isNonEmpty());
}

TEST_F(NbaTest, UnreachableAcceptingCycleIsEmpty) {
  Nba A;
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState(); // Unreachable from Q0.
  A.setInitial(Q0);
  addEdge(A, Q1, Q1, true);
  EXPECT_FALSE(A.isNonEmpty());
}

TEST_F(NbaTest, LiveStates) {
  // q0 -> q1 --accepting--> q1; q2 isolated.
  Nba A;
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState();
  uint32_t Q2 = A.addState();
  addEdge(A, Q0, Q1, false);
  addEdge(A, Q1, Q1, true);
  (void)Q2;
  auto Live = A.liveStates();
  ASSERT_EQ(Live.size(), 3u);
  EXPECT_TRUE(Live[Q0]);
  EXPECT_TRUE(Live[Q1]);
  EXPECT_FALSE(Live[Q2]);
}

TEST_F(NbaTest, AddEdgeMergesOnTargetAcceptanceAndCube) {
  Nba A(/*OutputWords=*/2);
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState();
  const Nba::Edge E{Q1, /*Accepting=*/false, /*InputCare=*/1,
                    /*InputValue=*/1};
  const uint64_t Low[2] = {0x5, 0};
  const uint64_t High[2] = {0x1, 0x8};
  EXPECT_TRUE(A.addEdge(Q0, E, Low));
  // Same (target, accepting, cube): the masks are ORed.
  EXPECT_FALSE(A.addEdge(Q0, E, High));
  ASSERT_EQ(A.edges(Q0).size(), 1u);
  EXPECT_EQ(A.outputs(Q0, 0)[0], 0x5u);
  EXPECT_EQ(A.outputs(Q0, 0)[1], 0x8u);
  // Another cube, or another acceptance flag, is another edge.
  EXPECT_TRUE(A.addEdge(Q0, {Q1, false, 1, 0}, Low));
  EXPECT_TRUE(A.addEdge(Q0, {Q1, true, 1, 1}, High));
  ASSERT_EQ(A.edges(Q0).size(), 3u);
  EXPECT_EQ(A.edges(Q0)[1].InputValue, 0u);
  EXPECT_EQ(A.outputs(Q0, 1)[0], 0x5u);
  EXPECT_TRUE(A.edges(Q0)[2].Accepting);
  EXPECT_EQ(A.outputs(Q0, 2)[1], 0x8u);
  EXPECT_TRUE(A.edges(Q1).empty());
}

TEST_F(NbaTest, DropDeadEdgesRemovesEdgesIntoDeadStates) {
  // q0 -> q1 --accepting--> q1, q0 -> q2 -> q2 (never accepting), and
  // q0 -> q3 --accepting--> q2. Only q2 is dead: its self-loop and the
  // edges from q0 and q3 into it go. One pass: q3 was live when the pass
  // began, so the edge from q0 into it stays.
  Nba A;
  uint32_t Q0 = A.addState();
  uint32_t Q1 = A.addState();
  uint32_t Q2 = A.addState();
  uint32_t Q3 = A.addState();
  A.setInitial(Q0);
  addEdge(A, Q0, Q1, false);
  addEdge(A, Q0, Q2, false);
  addEdge(A, Q0, Q3, false);
  addEdge(A, Q1, Q1, true);
  addEdge(A, Q2, Q2, false);
  addEdge(A, Q3, Q2, true);
  EXPECT_EQ(A.dropDeadEdges(), 3u);
  ASSERT_EQ(A.edges(Q0).size(), 2u);
  EXPECT_EQ(A.edges(Q0)[0].Target, Q1);
  EXPECT_EQ(A.edges(Q0)[1].Target, Q3);
  EXPECT_EQ(A.edges(Q1).size(), 1u);
  EXPECT_TRUE(A.edges(Q2).empty());
  EXPECT_TRUE(A.edges(Q3).empty());
  EXPECT_TRUE(A.isNonEmpty());
}

} // namespace
