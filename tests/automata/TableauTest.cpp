//===- tests/automata/TableauTest.cpp - Tableau and NBA tests -------------===//

#include "automata/Tableau.h"

#include "logic/Parser.h"

#include <gtest/gtest.h>

#include <string>

using namespace temos;

namespace {

/// Fixture with two boolean input predicates p, q and one cell with two
/// real updates (inc/dec), giving a small but nontrivial alphabet.
class TableauTest : public ::testing::Test {
protected:
  void SetUp() override {
    auto Parsed = parseSpecification(R"(
      #LIA#
      inputs { bool p, q; }
      cells { int x = 0; }
      always guarantee {
        G (p -> [x <- x + 1]);
        G (q -> [x <- x - 1]);
      }
    )", Ctx);
    ASSERT_TRUE(Parsed.ok()) << Parsed.error().str();
    Spec = *Parsed;
    AB = Alphabet::build(Spec, Ctx);
  }

  /// Parses a formula in the fixture's signal scope.
  const Formula *formula(const std::string &Source) {
    auto F = parseFormula(Source, Spec, Ctx);
    EXPECT_TRUE(F.ok()) << F.error().str();
    return F.valueOr(nullptr);
  }

  bool sat(const std::string &Source) {
    const Formula *F = formula(Source);
    Alphabet A = Alphabet::build(Spec, Ctx, {F});
    return isSatisfiable(F, Ctx, A).value();
  }

  Context Ctx;
  Specification Spec;
  Alphabet AB;
};

TEST_F(TableauTest, AtomsAreSatisfiable) {
  EXPECT_TRUE(sat("p"));
  EXPECT_TRUE(sat("! p"));
  EXPECT_TRUE(sat("[x <- x + 1]"));
}

TEST_F(TableauTest, ContradictionsAreUnsat) {
  EXPECT_FALSE(sat("p && ! p"));
  EXPECT_FALSE(sat("false"));
  EXPECT_TRUE(sat("true"));
}

TEST_F(TableauTest, UpdateMutualExclusionIsStructural) {
  // Two different updates of the same cell cannot fire together.
  EXPECT_FALSE(sat("[x <- x + 1] && [x <- x - 1]"));
  // But an update and a predicate can.
  EXPECT_TRUE(sat("[x <- x + 1] && p"));
  // Negated update with the other choices remains satisfiable.
  EXPECT_TRUE(sat("! [x <- x + 1]"));
  // Forbidding all three options (inc, dec, self) is unsatisfiable.
  EXPECT_FALSE(sat("! [x <- x + 1] && ! [x <- x - 1] && ! [x <- x]"));
}

TEST_F(TableauTest, TemporalSatisfiability) {
  EXPECT_TRUE(sat("G p"));
  EXPECT_TRUE(sat("F p"));
  EXPECT_TRUE(sat("G F p"));
  EXPECT_TRUE(sat("F G p"));
  EXPECT_TRUE(sat("p U q"));
  EXPECT_TRUE(sat("X X X p"));
  EXPECT_TRUE(sat("p W q"));
  EXPECT_TRUE(sat("p R q"));
}

TEST_F(TableauTest, LivenessContradictions) {
  // These require correct Buechi acceptance, not just propositional
  // reasoning.
  EXPECT_FALSE(sat("G p && F (! p)"));
  EXPECT_FALSE(sat("G F p && F G (! p)"));
  EXPECT_FALSE(sat("(G p) && ((! p) U q) && G (! q)"));
  EXPECT_FALSE(sat("F G p && G F (! p)"));
}

TEST_F(TableauTest, UntilRequiresEventualFulfillment) {
  // p U q with G !q is unsat; p W q with G !q is fine if G p.
  EXPECT_FALSE(sat("(p U q) && G (! q)"));
  EXPECT_TRUE(sat("(p W q) && G (! q)"));
  EXPECT_FALSE(sat("(p W q) && G (! q) && F (! p)"));
}

TEST_F(TableauTest, ReleaseSemantics) {
  // p R q: q holds until (and including when) p holds.
  EXPECT_TRUE(sat("p R q"));
  EXPECT_FALSE(sat("(p R q) && (! q)"));
  EXPECT_FALSE(sat("(false R q) && F (! q)")); // G q && F !q.
}

TEST_F(TableauTest, PeeledInvariantDecidesLikeTheUnpeeledConjunct) {
  // At the top level, G !(p && q) is peeled off as the input-letter
  // filter; !(p && q) W false says the same and is expanded like any
  // other obligation. Both must decide alike, also where the rest needs
  // a letter the invariant rules out.
  for (std::string Rest :
       {"F (p && q)", "G F p && G F q", "F (p && X q)", "G p && F q", "true"}) {
    SCOPED_TRACE(Rest);
    EXPECT_EQ(sat("G ! (p && q) && " + Rest),
              sat("(! (p && q) W false) && " + Rest));
  }
  EXPECT_FALSE(sat("G ! (p && q) && F (p && q)"));
  EXPECT_FALSE(sat("G ! (p && q) && G p && F q"));
  EXPECT_TRUE(sat("G ! (p && q) && G F p && G F q"));

  // The invariant adds no tableau state: only its letters are recorded.
  const Formula *F = formula("G ! (p && q)");
  Alphabet A = Alphabet::build(Spec, Ctx, {F});
  TableauStats Stats;
  Nba N = buildNba(F, Ctx, A, &Stats);
  EXPECT_EQ(N.inputs().size(), A.inputLetterCount() - 1);
  EXPECT_EQ(Stats.GeneralizedStates, 2u); // {true} and {}.
}

TEST_F(TableauTest, NextInteraction) {
  EXPECT_TRUE(sat("p && X (! p)"));
  EXPECT_FALSE(sat("X p && X (! p)"));
  EXPECT_FALSE(sat("G (p -> X p) && p && F (! p)"));
}

TEST_F(TableauTest, UpdateLiveness) {
  EXPECT_TRUE(sat("G F [x <- x + 1] && G F [x <- x - 1]"));
  EXPECT_FALSE(sat("G [x <- x + 1] && F [x <- x - 1]"));
}

TEST_F(TableauTest, UpdateOutsideTheAlphabetNeverFires) {
  // The fixture's alphabet offers x + 1, x - 1 and the self-update only:
  // an update to x + 2 chooses no output letter.
  auto Sat = [&](const std::string &Source) {
    return isSatisfiable(formula(Source), Ctx, AB).value();
  };
  EXPECT_FALSE(Sat("[x <- x + 2]"));
  EXPECT_FALSE(Sat("F [x <- x + 2]"));
  EXPECT_TRUE(Sat("! [x <- x + 2]"));
  EXPECT_TRUE(Sat("G (! [x <- x + 2]) && G F [x <- x + 1]"));
  EXPECT_FALSE(Sat("G (! [x <- x + 2]) && [x <- x + 2] W p && G ! p"));
}

TEST_F(TableauTest, ImplicationChains) {
  // The mutex example shape (Sec. 4.2): without consistency assumptions
  // both guards can be true simultaneously, forcing both updates: unsat
  // at that instant.
  EXPECT_FALSE(sat("p && q && (p -> [x <- x + 1]) && (q -> [x <- x - 1])"));
  // With the consistency assumption !(p && q), satisfiable.
  EXPECT_TRUE(
      sat("! (p && q) && (p -> [x <- x + 1]) && (q -> [x <- x - 1])"));
}

TEST_F(TableauTest, StatsAreReported) {
  TableauStats Stats;
  buildNba(formula("G (p -> F q)"), Ctx, AB, &Stats);
  EXPECT_GT(Stats.NbaStates, 0u);
  EXPECT_GT(Stats.NbaTransitions, 0u);
  EXPECT_EQ(Stats.AcceptanceSets, 1u);
}

TEST_F(TableauTest, ExpiredDeadlineLeavesSatisfiabilityUndecided) {
  // "p && ! p" is unsat; a build cut off by the deadline must not say so.
  const Formula *F = formula("p && ! p");
  Alphabet A = Alphabet::build(Spec, Ctx, {F});
  EXPECT_EQ(isSatisfiable(F, Ctx, A, Deadline::after(0)), std::nullopt);
  EXPECT_EQ(isSatisfiable(F, Ctx, A), std::optional<bool>(false));
}

TEST_F(TableauTest, TooManyAcceptanceSetsAreABudgetFailure) {
  // F p && F X p && ... : one eventuality more than a defer mask tracks.
  std::vector<const Formula *> Eventualities;
  for (unsigned K = 0; K <= MaxAcceptanceSets; ++K)
    Eventualities.push_back(Ctx.Formulas.finallyF(
        Ctx.Formulas.nextN(formula("p"), K)));
  const Formula *F = Ctx.Formulas.andF(Eventualities);
  Alphabet A = Alphabet::build(Spec, Ctx, {F});
  TableauStats Stats;
  buildNba(F, Ctx, A, &Stats);
  EXPECT_TRUE(Stats.BudgetExceeded);
  EXPECT_FALSE(Stats.TimedOut);
  EXPECT_EQ(Stats.AcceptanceSets, MaxAcceptanceSets + 1);
  EXPECT_EQ(isSatisfiable(F, Ctx, A), std::nullopt);
}

TEST_F(TableauTest, NoAcceptanceSetsForSafety) {
  TableauStats Stats;
  buildNba(formula("G p"), Ctx, AB, &Stats);
  EXPECT_EQ(Stats.AcceptanceSets, 0u);
}

} // namespace
