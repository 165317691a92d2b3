//===- tests/core/DecompositionTest.cpp - Alg. 1 tests --------------------===//

#include "core/Decomposition.h"

#include "logic/Parser.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class DecompositionTest : public ::testing::Test {
protected:
  Specification parse(const std::string &Source) {
    auto Spec = parseSpecification(Source, Ctx);
    EXPECT_TRUE(Spec.ok()) << Spec.error().str();
    return *Spec;
  }

  bool hasObligation(const Decomposition &D, const std::string &PreStr,
                     const std::string &PostStr, Obligation::Kind K,
                     unsigned Steps = 0) {
    for (const Obligation &Ob : D.Obligations) {
      if (Ob.K != K)
        continue;
      if (K == Obligation::Kind::Exact && Steps != 0 && Ob.Steps != Steps)
        continue;
      if (Ob.Pre.size() != 1 || Ob.Post.size() != 1)
        continue;
      std::string Pre = std::string(Ob.Pre[0].Positive ? "" : "!")
                            .append(Ob.Pre[0].Atom->str());
      std::string Post = std::string(Ob.Post[0].Positive ? "" : "!")
                             .append(Ob.Post[0].Atom->str());
      if (Pre == PreStr && Post == PostStr)
        return true;
    }
    return false;
  }

  Context Ctx;
};

TEST_F(DecompositionTest, IntroExampleCounts) {
  // The introduction's counter spec.
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )");
  Decomposition D = decompose(Spec, Ctx);
  EXPECT_EQ(D.PredicateLiterals.size(), 2u); // x = 0, x = 2.
  EXPECT_EQ(D.UpdateTerms.size(), 2u);       // x+1, x-1.
  EXPECT_TRUE(hasObligation(D, "(x = 0)", "(x = 2)",
                            Obligation::Kind::Eventually));
}

TEST_F(DecompositionTest, ExactStepObligationsFromNext) {
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      x = 0 -> X X (x = 2);
    }
  )");
  Decomposition D = decompose(Spec, Ctx);
  EXPECT_TRUE(
      hasObligation(D, "(x = 0)", "(x = 2)", Obligation::Kind::Exact, 2));
}

TEST_F(DecompositionTest, UntilProducesReachability) {
  Specification Spec = parse(R"(
    #RA#
    inputs { real f; }
    cells { bool lfo; }
    always guarantee {
      f <= c10() -> [lfo <- False()] U f > c10();
    }
  )");
  Decomposition D = decompose(Spec, Ctx);
  // The U right-hand side literal becomes a reachability post-condition.
  EXPECT_TRUE(hasObligation(D, "(f <= 10)", "(f > 10)",
                            Obligation::Kind::Eventually));
}

TEST_F(DecompositionTest, NegatedLiteralsUnderNNF) {
  Specification Spec = parse(R"(
    #LIA#
    inputs { int a; }
    cells { int x = 0; }
    always guarantee {
      F (! (a < x));
    }
  )");
  Decomposition D = decompose(Spec, Ctx);
  EXPECT_TRUE(hasObligation(D, "(a < x)", "!(a < x)",
                            Obligation::Kind::Eventually));
}

TEST_F(DecompositionTest, TrivialEventualObligationsSkipped) {
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee { F (x = 0); }
  )");
  Decomposition D = decompose(Spec, Ctx);
  // pre (x=0) with post F(x=0) is trivially fulfilled: skipped; the
  // negated pre-condition variant remains.
  EXPECT_FALSE(
      hasObligation(D, "(x = 0)", "(x = 0)", Obligation::Kind::Eventually));
  EXPECT_TRUE(
      hasObligation(D, "!(x = 0)", "(x = 0)", Obligation::Kind::Eventually));
}

TEST_F(DecompositionTest, ObligationCapRespected) {
  Specification Spec = parse(R"(
    #LIA#
    inputs { int a, b, c; }
    cells { int x = 0; }
    always guarantee {
      F (a < x); F (b < x); F (c < x); F (a < b); F (b < c);
    }
  )");
  DecompositionOptions Options;
  Options.MaxObligations = 7;
  Decomposition D = decompose(Spec, Ctx, Options);
  EXPECT_LE(D.Obligations.size(), 7u);
}

TEST_F(DecompositionTest, GloballyIsTransparentForNextCounting) {
  Specification Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee { G (x = 0 -> X (x = 1)); }
  )");
  Decomposition D = decompose(Spec, Ctx);
  EXPECT_TRUE(
      hasObligation(D, "(x = 0)", "(x = 1)", Obligation::Kind::Exact, 1));
}

TEST_F(DecompositionTest, ObligationStr) {
  Obligation Ob;
  TermFactory TF;
  const Term *P = TF.apply("=", Sort::Bool,
                           {TF.signal("x", Sort::Int), TF.numeral(0)});
  Ob.Pre = {{P, true}};
  Ob.Post = {{P, false}};
  Ob.K = Obligation::Kind::Exact;
  Ob.Steps = 2;
  EXPECT_EQ(Ob.str(), "(x = 0) --[2 steps]--> !(x = 0)");
}

TEST_F(DecompositionTest, LiteralCanonicalizationCollapsesEquivalents) {
  // !(f <= 10) and (f > 10) are the same predicate evaluation in RA;
  // obligations must not be duplicated across the two spellings.
  Specification Spec = parse(R"(
    #RA#
    cells { real f = 0; }
    always guarantee {
      [f <- f + 1] || [f <- f - 1];
      f <= c10() -> F (f > c10());
      f > c10() -> F (f <= c10());
    }
  )");
  Decomposition D = decompose(Spec, Ctx);
  // Exactly the two direction obligations survive: (f<=10 -> F f>10)
  // and (f>10 -> F f<=10); every negated spelling collapses onto them.
  EXPECT_EQ(D.Obligations.size(), 2u);
}

TEST_F(DecompositionTest, SameAtomPairsKeepTheCanonicalLiterals) {
  // The canonicalizer decides a pair over one atom without the solver
  // (the same polarity is the same literal, opposite ones are never
  // equivalent); pairs over two atoms still go to the solver, so
  // !(f <= 10) and (f > 10) still merge.
  Specification Spec = parse(R"(
    #LIA#
    cells { int f = 0; }
    always guarantee {
      [f <- f + 1] || [f <- f - 1];
      !(f <= 10) -> F (f <= 10);
      f > 10 -> X (f <= 10);
      f <= 10 -> F (f > 10);
    }
  )");
  Decomposition D = decompose(Spec, Ctx);
  std::vector<std::string> Obligations;
  for (const Obligation &Ob : D.Obligations)
    Obligations.push_back(Ob.str());
  // !(f <= 10) appears only as its canonical spelling (f > 10).
  EXPECT_EQ(Obligations, (std::vector<std::string>{
                             "(f > 10) --[eventually]--> (f <= 10)",
                             "(f <= 10) --[1 steps]--> (f <= 10)",
                             "(f > 10) --[1 steps]--> (f <= 10)",
                             "(f <= 10) --[eventually]--> (f > 10)",
                         }));
}

TEST_F(DecompositionTest, AllLiteralsBecomeEventualPosts) {
  // The CFS mechanism (Sec. 2): vr-comparisons appear under no temporal
  // operator in the spec, yet the flip obligation must exist.
  Specification Spec = parse(R"(
    #LIA#
    cells { int vr1 = 0; int vr2 = 0; }
    always guarantee {
      G (vr1 < vr2 -> [vr1 <- vr1 + 1]);
      G (vr2 < vr1 -> [vr2 <- vr2 + 1]);
    }
  )");
  Decomposition D = decompose(Spec, Ctx);
  EXPECT_TRUE(hasObligation(D, "(vr1 < vr2)", "(vr2 < vr1)",
                            Obligation::Kind::Eventually));
}

TEST_F(DecompositionTest, RelatedPreObligationsComeFirst) {
  Specification Spec = parse(R"(
    #LIA#
    inputs { bool enq; }
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
      G (enq -> [x <- x + 1]);
    }
  )");
  Decomposition D = decompose(Spec, Ctx);
  ASSERT_FALSE(D.Obligations.empty());
  // The first obligations relate pre and post through a shared signal.
  std::vector<std::string> PostSignals, PreSignals;
  collectSignals(D.Obligations[0].Post[0].Atom, PostSignals);
  bool Shares = false;
  for (const TheoryLiteral &L : D.Obligations[0].Pre) {
    std::vector<std::string> S;
    collectSignals(L.Atom, S);
    for (const std::string &N : S)
      Shares |= std::find(PostSignals.begin(), PostSignals.end(), N) !=
                PostSignals.end();
  }
  EXPECT_TRUE(Shares);
}

} // namespace
