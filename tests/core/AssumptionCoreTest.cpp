//===- tests/core/AssumptionCoreTest.cpp - Fig. 4 oracle tests ------------===//

#include "core/AssumptionCore.h"

#include "logic/Parser.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class AssumptionCoreTest : public ::testing::Test {
protected:
  Specification parse(const std::string &Source) {
    auto Spec = parseSpecification(Source, Ctx);
    EXPECT_TRUE(Spec.ok()) << Spec.error().str();
    return *Spec;
  }

  Context Ctx;
};

TEST_F(AssumptionCoreTest, DropsSuperfluousAssumptions) {
  // The counter spec plus a junk assumption: the core must not need it.
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(Spec);
  ASSERT_EQ(R.Status, Realizability::Realizable);
  ASSERT_GE(R.Assumptions.size(), 2u);

  // Add a valid-but-useless extra assumption.
  auto JunkR = parseFormula("G (x = 2 -> ! (x = 0))", Spec, Ctx);
  ASSERT_TRUE(JunkR.ok()) << JunkR.error().str();
  const Formula *Junk = *JunkR;
  std::vector<const Formula *> WithJunk = R.Assumptions;
  WithJunk.push_back(Ctx.Formulas.globally(Junk));

  OracleResult O = computeOracle(Spec, WithJunk, Ctx);
  EXPECT_EQ(O.Status, Realizability::Realizable);
  EXPECT_LT(O.Core.size(), WithJunk.size());
  // The two-increment assumption must survive (the spec is unrealizable
  // without any data knowledge).
  EXPECT_GE(O.Core.size(), 1u);
}

TEST_F(AssumptionCoreTest, UnrealizableWithAllAssumptionsReported) {
  Specification Spec = parse(R"(
    #LIA#
    inputs { int a; }
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x];
      a < x;
    }
  )");
  OracleResult O = computeOracle(Spec, {}, Ctx);
  EXPECT_EQ(O.Status, Realizability::Unrealizable);
  EXPECT_TRUE(O.Core.empty());
}

TEST_F(AssumptionCoreTest, EmptySetStaysEmptyWhenRealizable) {
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee { [x <- x + 1]; }
  )");
  OracleResult O = computeOracle(Spec, {}, Ctx);
  EXPECT_EQ(O.Status, Realizability::Realizable);
  EXPECT_TRUE(O.Core.empty());
  EXPECT_GT(O.RealizabilityChecks, 0u);
  EXPECT_GE(O.OracleSynthesisSeconds, 0.0);
}

TEST_F(AssumptionCoreTest, CoreIsStillRealizable) {
  Specification Spec = parse(R"(
    #LIA#
    inputs { int x, y; }
    cells { int m = 0; }
    always guarantee {
      G (x < y -> [m <- x]);
      G (y < x -> [m <- y]);
    }
  )");
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(Spec);
  ASSERT_EQ(R.Status, Realizability::Realizable);
  OracleResult O = computeOracle(Spec, R.Assumptions, Ctx);
  ASSERT_EQ(O.Status, Realizability::Realizable);
  // Verify the reduced set really suffices.
  const Formula *Phi = Synth.formulaWithAssumptions(Spec, O.Core);
  std::vector<const Formula *> ForAlphabet = O.Core;
  ForAlphabet.push_back(Phi);
  Alphabet AB = Alphabet::build(Spec, Ctx, ForAlphabet);
  EXPECT_EQ(synthesizeLtl(Phi, Ctx, AB).Status, Realizability::Realizable);
}

} // namespace
