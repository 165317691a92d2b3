//===- tests/core/RefinementCheckTest.cpp - Core-first CHECK-SAT ----------===//
///
/// \file
/// Alg. 4's CHECK-SAT decides an assumption on its core (the conjunction
/// without the SyGuS assumptions) before the full formula. An unsat core
/// answers for the full check, so the rule is sound only if the core's
/// language contains the full formula's. These tests take both formulas
/// from Synthesizer::firstRoundChecks, which builds them with the
/// function the refinement step uses, and check that implication on
/// every SyGuS assumption of every bundled row's eager round; that CFS's
/// one refinement is decided by the core; and that the two cut-offs
/// keep their meaning: a deadline ends the check undecided, a tableau
/// budget falls through to the full check.
///
//===----------------------------------------------------------------------===//

#include "core/Synthesizer.h"

#include "automata/Tableau.h"
#include "benchmarks/Benchmarks.h"
#include "logic/Parser.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>
#include <vector>

using namespace temos;

namespace {

/// The CHECK-SAT pairs of the first eager round on \p Spec.
std::vector<RefinementCheck> eagerRoundChecks(const Specification &Spec,
                                              Context &Ctx,
                                              PipelineResult &Result) {
  Synthesizer Synth(Ctx);
  return Synth.firstRoundChecks(Spec, PipelineOptions(), Result);
}

struct RefinementRow {
  const char *Name; ///< As accepted by findBenchmark.
};

const RefinementRow Rows[] = {
    {"Vibrato"}, {"Modulation"}, {"Intertwined"}, {"Multi-effect"},
    {"Single-Player"}, {"Two-Player"}, {"Bouncing"}, {"Automatic"}, {"Simple"},
    {"Counting"}, {"Bidirectional"}, {"Smart"}, {"Round Robin"},
    {"Load Balancer"}, {"Preemptive"}, {"CFS"},
};

/// Prints a row as its benchmark name, not as the struct's raw bytes
/// (which would put a pointer into the registered test names).
void PrintTo(const RefinementRow &R, std::ostream *OS) { *OS << R.Name; }

class RefinementCheckRows : public ::testing::TestWithParam<RefinementRow> {};

/// Core unsat => full unsat, over the shared alphabet, for every SyGuS
/// assumption of the row's eager round.
TEST_P(RefinementCheckRows, CoreUnsatImpliesFullUnsat) {
  const RefinementRow &Row = GetParam();
  const BenchmarkSpec *B = findBenchmark(Row.Name);
  ASSERT_NE(B, nullptr);
  Context Ctx;
  auto Spec = parseSpecification(B->Source, Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();

  PipelineResult Result;
  const std::vector<RefinementCheck> Checks =
      eagerRoundChecks(*Spec, Ctx, Result);
  for (size_t I = 0; I < Checks.size(); ++I) {
    const RefinementCheck &C = Checks[I];
    std::optional<bool> CoreSat = isSatisfiable(C.Core, Ctx, C.AB);
    ASSERT_TRUE(CoreSat.has_value()) << Row.Name << " assumption " << I;
    if (*CoreSat)
      continue;
    EXPECT_EQ(isSatisfiable(C.Full, Ctx, C.AB), std::optional<bool>(false))
        << Row.Name << " assumption " << I
        << ": the core is unsat but the full formula is not";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, RefinementCheckRows, ::testing::ValuesIn(Rows),
    [](const ::testing::TestParamInfo<RefinementRow> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

/// CFS is the one row that refines. Its first unhelpful assumption is
/// decided by the core, and the pipeline replaces exactly that one.
TEST(RefinementCheckCfs, RefinementIsDecidedByTheCore) {
  const BenchmarkSpec *B = findBenchmark("CFS");
  ASSERT_NE(B, nullptr);
  Context Ctx;
  auto Spec = parseSpecification(B->Source, Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();

  PipelineResult Round0;
  const std::vector<RefinementCheck> Checks =
      eagerRoundChecks(*Spec, Ctx, Round0);
  size_t Unhelpful = Checks.size();
  for (size_t I = 0; I < Checks.size() && Unhelpful == Checks.size(); ++I)
    if (decideRefinementCheck(Checks[I], Ctx, Deadline(), {}) == false)
      Unhelpful = I;
  ASSERT_LT(Unhelpful, Checks.size()) << "no unhelpful assumption";
  EXPECT_EQ(isSatisfiable(Checks[Unhelpful].Core, Ctx, Checks[Unhelpful].AB),
            std::optional<bool>(false))
      << "the refinement should be decided by the core";

  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(*Spec);
  EXPECT_EQ(R.Status, Realizability::Realizable);
  EXPECT_EQ(R.Stats.Refinements, 1u);
  ASSERT_TRUE(R.Machine.has_value());
  EXPECT_EQ(R.Machine->stateCount(), 78u);
  ASSERT_EQ(R.SygusAssumptions.size(), Round0.SygusAssumptions.size());
  for (size_t I = 0; I < R.SygusAssumptions.size(); ++I)
    EXPECT_EQ(R.SygusAssumptions[I].Assumption ==
                  Round0.SygusAssumptions[I].Assumption,
              I != Unhelpful)
        << "assumption " << I;
}

/// Example 4.6: the program (+1; +1) breaks `[x <- x + 1] -> X [x <- x]`,
/// which the core alone already contradicts.
const char *const ExampleFourSix = R"(
  #LIA#
  cells { int x = 0; }
  always guarantee {
    [x <- x + 1] || [x <- x];
    [x <- x + 1] -> X [x <- x];
    x = 0 -> F (x = 2);
  }
)";

class RefinementCheckExample : public ::testing::Test {
protected:
  void SetUp() override {
    auto Parsed = parseSpecification(ExampleFourSix, Ctx);
    ASSERT_TRUE(Parsed.ok()) << Parsed.error().str();
    Spec = *Parsed;
    Checks = eagerRoundChecks(*Spec, Ctx, Result);
    ASSERT_FALSE(Checks.empty());
  }

  Context Ctx;
  std::optional<Specification> Spec;
  PipelineResult Result;
  std::vector<RefinementCheck> Checks;
};

TEST_F(RefinementCheckExample, CoreDecidesTheUnhelpfulProgram) {
  const RefinementCheck &C = Checks.front();
  EXPECT_NE(C.Core, C.Full);
  EXPECT_EQ(isSatisfiable(C.Core, Ctx, C.AB), std::optional<bool>(false));
  EXPECT_EQ(isSatisfiable(C.Full, Ctx, C.AB), std::optional<bool>(false));
  EXPECT_EQ(decideRefinementCheck(C, Ctx, Deadline(), {}),
            std::optional<bool>(false));
}

/// A deadline that expires during the core check leaves the question
/// undecided and expired -- the refinement step then ends the run
/// Unknown with a Timeout record -- instead of running the full check.
TEST_F(RefinementCheckExample, ExpiredDeadlineLeavesTheCheckUndecided) {
  const Deadline Expired = Deadline::after(0);
  EXPECT_EQ(decideRefinementCheck(Checks.front(), Ctx, Expired, {}),
            std::nullopt);
  EXPECT_TRUE(Expired.expired());
}

/// A tableau budget that cuts the core off is no verdict: the full
/// check runs and answers.
TEST_F(RefinementCheckExample, TableauBudgetFallsThroughToTheFullCheck) {
  TableauLimits OneState;
  OneState.MaxGeneralizedStates = 1;
  const RefinementCheck &C = Checks.front();
  ASSERT_EQ(isSatisfiable(C.Core, Ctx, C.AB, Deadline(), OneState),
            std::nullopt);

  // The full formula is cut off too: undecided, deadline not expired.
  EXPECT_EQ(decideRefinementCheck(C, Ctx, Deadline(), OneState),
            std::nullopt);

  // A full formula the budget can decide (here the core conjoined with
  // false) answers once the core is cut off.
  RefinementCheck Decidable = C;
  Decidable.Full = Ctx.Formulas.andF(C.Core, Ctx.Formulas.falseF());
  EXPECT_EQ(decideRefinementCheck(Decidable, Ctx, Deadline(), OneState),
            std::optional<bool>(false));
}

} // namespace
