//===- tests/tsl2ltl/AlphabetTest.cpp - Alphabet tests --------------------===//

#include "tsl2ltl/Alphabet.h"

#include "logic/Parser.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class AlphabetTest : public ::testing::Test {
protected:
  Specification parse(const std::string &Source) {
    auto Spec = parseSpecification(Source, Ctx);
    EXPECT_TRUE(Spec.ok()) << Spec.error().str();
    return *Spec;
  }

  Context Ctx;
};

TEST_F(AlphabetTest, CollectsPredicatesAndUpdates) {
  Specification Spec = parse(R"(
    #LIA#
    inputs { int a; }
    cells { int x = 0; }
    always guarantee {
      G (a < x -> [x <- x + 1]);
      G (x < a -> [x <- x - 1]);
    }
  )");
  Alphabet AB = Alphabet::build(Spec, Ctx);
  EXPECT_EQ(AB.predicates().size(), 2u);
  ASSERT_EQ(AB.cells().size(), 1u);
  // x+1, x-1, plus the implicit self-update.
  EXPECT_EQ(AB.cells()[0].Options.size(), 3u);
  EXPECT_EQ(AB.inputLetterCount(), 4u);
  EXPECT_EQ(AB.outputLetterCount(), 3u);
}

TEST_F(AlphabetTest, SelfUpdateNotDuplicated) {
  Specification Spec = parse(R"(
    cells { int x = 0; }
    always guarantee { [x <- x]; }
  )");
  Alphabet AB = Alphabet::build(Spec, Ctx);
  ASSERT_EQ(AB.cells().size(), 1u);
  EXPECT_EQ(AB.cells()[0].Options.size(), 1u);
}

TEST_F(AlphabetTest, OutputsAreUpdatable) {
  Specification Spec = parse(R"(
    inputs { int t1; }
    outputs { int next; }
    always guarantee { [next <- t1]; }
  )");
  Alphabet AB = Alphabet::build(Spec, Ctx);
  ASSERT_EQ(AB.cells().size(), 1u);
  EXPECT_EQ(AB.cells()[0].Cell, "next");
  // [next <- t1] and implicit [next <- next].
  EXPECT_EQ(AB.cells()[0].Options.size(), 2u);
}

TEST_F(AlphabetTest, OutputEncodingRoundTrip) {
  Specification Spec = parse(R"(
    cells { int x = 0; int y = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      [y <- y + 1] || [y <- x];
    }
  )");
  Alphabet AB = Alphabet::build(Spec, Ctx);
  ASSERT_EQ(AB.cells().size(), 2u);
  size_t Total = AB.outputLetterCount();
  EXPECT_EQ(Total, AB.cells()[0].Options.size() *
                       AB.cells()[1].Options.size());
  for (uint32_t O = 0; O < Total; ++O) {
    auto Choices = AB.decodeOutput(O);
    EXPECT_EQ(AB.encodeOutput(Choices), O);
  }
}

TEST_F(AlphabetTest, HoldsEvaluatesPredicates) {
  Specification Spec = parse(R"(
    inputs { int a; }
    cells { int x = 0; }
    always guarantee { G (a < x -> [x <- a]); }
  )");
  Alphabet AB = Alphabet::build(Spec, Ctx);
  ASSERT_EQ(AB.predicates().size(), 1u);
  const Formula *Pred = Ctx.Formulas.pred(AB.predicates()[0]);

  Letter WithPred{1, 0};
  Letter WithoutPred{0, 0};
  EXPECT_TRUE(AB.holds(Pred, WithPred));
  EXPECT_FALSE(AB.holds(Pred, WithoutPred));
}

TEST_F(AlphabetTest, HoldsEvaluatesUpdatesExactlyOnePerCell) {
  Specification Spec = parse(R"(
    cells { int x = 0; }
    always guarantee { [x <- x + 1] || [x <- x - 1]; }
  )");
  Alphabet AB = Alphabet::build(Spec, Ctx);
  ASSERT_EQ(AB.cells()[0].Options.size(), 3u);
  const Formula *Inc = AB.cells()[0].Options[0];
  const Formula *Dec = AB.cells()[0].Options[1];

  for (uint32_t O = 0; O < AB.outputLetterCount(); ++O) {
    Letter L{0, O};
    // Exactly one option fires per letter.
    int FiringCount = 0;
    for (const Formula *U : AB.cells()[0].Options)
      FiringCount += AB.holds(U, L) ? 1 : 0;
    EXPECT_EQ(FiringCount, 1);
  }
  EXPECT_TRUE(AB.holds(Inc, Letter{0, 0}));
  EXPECT_FALSE(AB.holds(Dec, Letter{0, 0}));
  EXPECT_TRUE(AB.holds(Dec, Letter{0, 1}));
}

TEST_F(AlphabetTest, ExtraFormulasContributeAtoms) {
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee { [x <- x + 1] || [x <- x - 1]; }
  )");
  // An assumption mentioning a new predicate x = 2.
  auto AssumptionR = parseFormula("x = 2 -> [x <- x + 1]", Spec, Ctx);
  ASSERT_TRUE(AssumptionR.ok()) << AssumptionR.error().str();
  const Formula *Assumption = *AssumptionR;
  Alphabet AB = Alphabet::build(Spec, Ctx, {Assumption});
  EXPECT_EQ(AB.predicates().size(), 1u);
}

} // namespace
