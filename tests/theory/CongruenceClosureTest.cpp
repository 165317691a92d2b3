//===- tests/theory/CongruenceClosureTest.cpp - EUF tests -----------------===//

#include "theory/CongruenceClosure.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

using NodeId = CongruenceClosure::NodeId;

class CongruenceClosureTest : public ::testing::Test {
protected:
  /// Function symbols.
  enum : uint32_t { F, G };

  NodeId sig() { return CC.add(CongruenceClosure::Leaf); }
  NodeId app(uint32_t Fn, NodeId Arg) {
    const NodeId Args[] = {Arg};
    return CC.add(Fn, Args);
  }
  NodeId app(uint32_t Fn, NodeId A, NodeId B) {
    const NodeId Args[] = {A, B};
    return CC.add(Fn, Args);
  }

  CongruenceClosure CC;
};

TEST_F(CongruenceClosureTest, ReflexiveEquality) {
  NodeId X = sig();
  EXPECT_TRUE(CC.areEqual(X, X));
}

TEST_F(CongruenceClosureTest, MergeMakesEqual) {
  NodeId X = sig();
  NodeId Y = sig();
  EXPECT_FALSE(CC.areEqual(X, Y));
  EXPECT_TRUE(CC.merge(X, Y));
  EXPECT_TRUE(CC.areEqual(X, Y));
}

TEST_F(CongruenceClosureTest, Transitivity) {
  NodeId X = sig();
  NodeId Y = sig();
  NodeId Z = sig();
  CC.merge(X, Y);
  CC.merge(Y, Z);
  EXPECT_TRUE(CC.areEqual(X, Z));
}

TEST_F(CongruenceClosureTest, CongruencePropagation) {
  NodeId X = sig();
  NodeId Y = sig();
  NodeId FX = app(F, X);
  NodeId FY = app(F, Y);
  EXPECT_FALSE(CC.areEqual(FX, FY));
  CC.merge(X, Y);
  EXPECT_TRUE(CC.areEqual(FX, FY));
}

TEST_F(CongruenceClosureTest, NestedCongruence) {
  NodeId X = sig();
  NodeId Y = sig();
  NodeId FFX = app(F, app(F, X));
  NodeId FFY = app(F, app(F, Y));
  CC.merge(X, Y);
  EXPECT_TRUE(CC.areEqual(FFX, FFY));
}

TEST_F(CongruenceClosureTest, DifferentFunctionsStayApart) {
  NodeId X = sig();
  NodeId FX = app(F, X);
  NodeId GX = app(G, X);
  EXPECT_FALSE(CC.areEqual(FX, GX));
}

TEST_F(CongruenceClosureTest, DisequalityConflict) {
  NodeId X = sig();
  NodeId Y = sig();
  EXPECT_TRUE(CC.addDisequality(X, Y));
  EXPECT_FALSE(CC.merge(X, Y));
}

TEST_F(CongruenceClosureTest, DisequalityOnAlreadyEqualFails) {
  NodeId X = sig();
  NodeId Y = sig();
  CC.merge(X, Y);
  EXPECT_FALSE(CC.addDisequality(X, Y));
}

TEST_F(CongruenceClosureTest, CongruenceTriggersDisequalityConflict) {
  // x = y, f(x) != f(y) is inconsistent.
  NodeId X = sig();
  NodeId Y = sig();
  NodeId FX = app(F, X);
  NodeId FY = app(F, Y);
  EXPECT_TRUE(CC.addDisequality(FX, FY));
  EXPECT_FALSE(CC.merge(X, Y));
}

TEST_F(CongruenceClosureTest, BinaryFunctionCongruence) {
  NodeId X = sig();
  NodeId Y = sig();
  NodeId Z = sig();
  NodeId FXZ = app(F, X, Z);
  NodeId FYZ = app(F, Y, Z);
  CC.merge(X, Y);
  EXPECT_TRUE(CC.areEqual(FXZ, FYZ));
  // One differing argument blocks congruence.
  NodeId FZX = app(F, Z, X);
  EXPECT_FALSE(CC.areEqual(FXZ, FZX));
}

TEST_F(CongruenceClosureTest, ArgumentsMayBeAddedAfterTheirParent) {
  // Parents first, as a depth-first numbering of f(x) and f(y) gives.
  const NodeId FXArgs[] = {1};
  const NodeId FYArgs[] = {3};
  NodeId FX = CC.add(F, FXArgs);
  NodeId X = sig();
  NodeId FY = CC.add(F, FYArgs);
  NodeId Y = sig();
  CC.merge(X, Y);
  EXPECT_TRUE(CC.areEqual(FX, FY));
}

TEST_F(CongruenceClosureTest, EqualPairsReporting) {
  NodeId X = sig();
  NodeId Y = sig();
  CC.merge(X, Y);
  auto Pairs = CC.equalPairs();
  ASSERT_EQ(Pairs.size(), 1u);
  EXPECT_EQ(Pairs[0], std::make_pair(X, Y));
}

TEST_F(CongruenceClosureTest, EqualPairsInNodeOrder) {
  NodeId X = sig();
  NodeId Y = sig();
  NodeId Z = sig();
  CC.merge(Z, X);
  CC.merge(Y, Z);
  using Pair = std::pair<NodeId, NodeId>;
  EXPECT_EQ(CC.equalPairs(),
            (std::vector<Pair>{{X, Y}, {X, Z}, {Y, Z}}));
}

} // namespace
