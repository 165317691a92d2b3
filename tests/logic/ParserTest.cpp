//===- tests/logic/ParserTest.cpp - Concrete syntax parser tests ----------===//

#include "logic/Parser.h"
#include "logic/Traversal.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class ParserTest : public ::testing::Test {
protected:
  ParseResult<Specification> parse(const std::string &Source) {
    return parseSpecification(Source, Ctx);
  }

  Context Ctx;
};

TEST_F(ParserTest, EmptySpec) {
  auto Spec = parse("");
  ASSERT_TRUE(Spec.ok());
  EXPECT_TRUE(Spec->Inputs.empty());
  EXPECT_TRUE(Spec->AlwaysGuarantees.empty());
}

TEST_F(ParserTest, TheoryHeader) {
  auto Spec = parse("#RA#");
  ASSERT_TRUE(Spec.ok());
  EXPECT_EQ(Spec->Th, Theory::LRA);
  auto SpecLIA = parse("#LIA#");
  ASSERT_TRUE(SpecLIA.ok());
  EXPECT_EQ(SpecLIA->Th, Theory::LIA);
  auto SpecUF = parse("#UF#");
  ASSERT_TRUE(SpecUF.ok());
  EXPECT_EQ(SpecUF->Th, Theory::UF);
}

TEST_F(ParserTest, UnknownTheoryFails) {
  auto Spec = parse("#XYZ#");
  EXPECT_FALSE(Spec.ok());
  EXPECT_FALSE(Spec.error().Message.empty());
}

TEST_F(ParserTest, SignalDeclarations) {
  auto Spec = parse(R"(
    inputs { int task1, task2; bool enq; }
    cells { int vruntime1 = 0; real freq; }
    outputs { opaque next_task; }
  )");
  ASSERT_TRUE(Spec.ok());
  ASSERT_EQ(Spec->Inputs.size(), 3u);
  EXPECT_EQ(Spec->Inputs[0].Name, "task1");
  EXPECT_EQ(Spec->Inputs[2].S, Sort::Bool);
  ASSERT_EQ(Spec->Cells.size(), 2u);
  EXPECT_EQ(Spec->Cells[0].Name, "vruntime1");
  ASSERT_NE(Spec->Cells[0].Init, nullptr);
  EXPECT_EQ(Spec->Cells[0].Init->value(), Rational(0));
  EXPECT_EQ(Spec->Cells[1].Init, nullptr);
  ASSERT_EQ(Spec->Outputs.size(), 1u);
  EXPECT_EQ(Spec->Outputs[0].S, Sort::Opaque);
}

TEST_F(ParserTest, SimpleGuarantee) {
  auto Spec = parse(R"(
    #LIA#
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
    }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  ASSERT_EQ(Spec->AlwaysGuarantees.size(), 1u);
  const Formula *G = Spec->AlwaysGuarantees[0];
  EXPECT_EQ(G->kind(), Formula::Kind::Or);
  EXPECT_EQ(G->str(), "([x <- (x + 1)] || [x <- (x - 1)])");
}

TEST_F(ParserTest, PrefixApplicationSyntax) {
  // The Fig. 5 vibrato style: prefix application + cN() constants.
  auto Spec = parse(R"(
    #RA#
    cells { real lfoFreq = 0; bool lfo; }
    always guarantee {
      G F [lfo <- True()];
      lte lfoFreq c10() -> [lfo <- False()] U gt lfoFreq c10();
      [lfo <- False()] -> [lfoFreq <- add lfoFreq c1()];
    }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  ASSERT_EQ(Spec->AlwaysGuarantees.size(), 3u);
  EXPECT_EQ(Spec->AlwaysGuarantees[0]->str(), "G F [lfo <- True()]");
  EXPECT_EQ(Spec->AlwaysGuarantees[1]->str(),
            "((lfoFreq <= 10) -> ([lfo <- False()] U (lfoFreq > 10)))");
  EXPECT_EQ(Spec->AlwaysGuarantees[2]->str(),
            "([lfo <- False()] -> [lfoFreq <- (lfoFreq + 1)])");
}

TEST_F(ParserTest, InfixAndPrefixBuildSameAst) {
  auto Spec = parse(R"(
    #LIA#
    inputs { int x, y; }
    cells { int m = 0; }
    always guarantee {
      x < y -> [m <- x];
      lt x y -> [m <- x];
    }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  ASSERT_EQ(Spec->AlwaysGuarantees.size(), 2u);
  EXPECT_EQ(Spec->AlwaysGuarantees[0], Spec->AlwaysGuarantees[1]);
}

TEST_F(ParserTest, TemporalOperators) {
  auto Spec = parse(R"(
    inputs { bool p, q; }
    always guarantee {
      G (p -> F q);
      p U q;
      p W q;
      p R q;
      X p;
      G F p;
    }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  ASSERT_EQ(Spec->AlwaysGuarantees.size(), 6u);
  EXPECT_EQ(Spec->AlwaysGuarantees[1]->kind(), Formula::Kind::Until);
  EXPECT_EQ(Spec->AlwaysGuarantees[2]->kind(), Formula::Kind::WeakUntil);
  EXPECT_EQ(Spec->AlwaysGuarantees[3]->kind(), Formula::Kind::Release);
  EXPECT_EQ(Spec->AlwaysGuarantees[4]->kind(), Formula::Kind::Next);
}

TEST_F(ParserTest, PrecedenceImpliesBindsLooserThanAnd) {
  auto Spec = parse(R"(
    inputs { bool a, b, c; }
    always guarantee { a && b -> c; }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  const Formula *F = Spec->AlwaysGuarantees[0];
  ASSERT_EQ(F->kind(), Formula::Kind::Implies);
  EXPECT_EQ(F->lhs()->kind(), Formula::Kind::And);
}

TEST_F(ParserTest, ImpliesIsRightAssociative) {
  auto Spec = parse(R"(
    inputs { bool a, b, c; }
    always guarantee { a -> b -> c; }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  const Formula *F = Spec->AlwaysGuarantees[0];
  ASSERT_EQ(F->kind(), Formula::Kind::Implies);
  EXPECT_EQ(F->rhs()->kind(), Formula::Kind::Implies);
}

TEST_F(ParserTest, PrecedenceTable) {
  // One row per adjacent pair of docs/LANGUAGE.md's precedence levels
  // and per associativity note; the printed AST is fully parenthesised.
  struct Row {
    const char *Source;
    const char *Printed;
  };
  const Row Rows[] = {
      {"a <-> b <-> c", "((a <-> b) <-> c)"},
      {"a -> b <-> c -> d", "((a -> b) <-> (c -> d))"},
      {"a -> b -> c", "(a -> (b -> c))"},
      {"a || b -> c || d", "((a || b) -> (c || d))"},
      {"a || b || c", "(a || b || c)"},
      {"a || b && c", "(a || (b && c))"},
      {"a && b && c", "(a && b && c)"},
      {"a && b U c", "(a && (b U c))"},
      {"a U b -> c W d", "((a U b) -> (c W d))"},
      {"a U b W c R d", "(a U (b W (c R d)))"},
      {"x < y U x = z", "((x < y) U (x = z))"},
      {"x - y + y * z < x", "(((x - y) + (y * z)) < x)"},
      {"x * y * z == x", "(((x * y) * z) = x)"},
      {"- x * y != z", "(((0 - x) * y) != z)"},
      {"- x < y", "((0 - x) < y)"},
      {"! a U b", "(! a U b)"},
      {"X a && b", "(X a && b)"},
      {"G F a -> ! b || c", "(G F a -> (! b || c))"},
  };
  auto Spec = parse("inputs { bool a, b, c, d; int x, y, z; }");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Source);
    auto F = parseFormula(R.Source, *Spec, Ctx);
    ASSERT_TRUE(F.ok()) << F.error().str();
    EXPECT_EQ((*F)->str(), R.Printed);
  }
}

TEST_F(ParserTest, DeclaredFunctions) {
  auto Spec = parse(R"(
    #UF#
    inputs { opaque x; }
    cells { opaque y; }
    functions { bool p(opaque); opaque f(opaque); }
    always guarantee {
      p x -> X (p y);
      [y <- f x];
    }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  auto Preds = collectPredicateTerms(*Spec);
  ASSERT_EQ(Preds.size(), 2u);
  EXPECT_EQ(Preds[0]->str(), "(p x)");
  EXPECT_EQ(Preds[0]->sort(), Sort::Bool);
}

TEST_F(ParserTest, UpdateOfUndeclaredCellFails) {
  auto Spec = parse(R"(
    inputs { int x; }
    always guarantee { [y <- x]; }
  )");
  EXPECT_FALSE(Spec.ok());
  EXPECT_NE(Spec.error().Message.find("y"), std::string::npos);
}

TEST_F(ParserTest, UnknownSignalFails) {
  auto Spec = parse(R"(
    inputs { int x; }
    cells { int c; }
    always guarantee { [c <- zz]; }
  )");
  EXPECT_FALSE(Spec.ok());
}

TEST_F(ParserTest, UnknownFunctionWithArgsFails) {
  auto Spec = parse(R"(
    inputs { int x; }
    cells { int c; }
    always guarantee { [c <- mystery x]; }
  )");
  EXPECT_FALSE(Spec.ok());
  EXPECT_NE(Spec.error().Message.find("mystery"), std::string::npos);
}

TEST_F(ParserTest, TermUsedAsFormulaMustBeBool) {
  auto Spec = parse(R"(
    inputs { int x; }
    always guarantee { x; }
  )");
  EXPECT_FALSE(Spec.ok());
}

TEST_F(ParserTest, Comments) {
  auto Spec = parse(R"(
    // A comment before everything.
    inputs { bool p; } // trailing comment
    always guarantee {
      // comment inside block
      G p;
    }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  ASSERT_EQ(Spec->AlwaysGuarantees.size(), 1u);
}

TEST_F(ParserTest, ErrorCarriesLineNumber) {
  auto Spec = parse("inputs { bool p; }\nalways guarantee {\n  q;\n}");
  ASSERT_FALSE(Spec.ok());
  EXPECT_EQ(Spec.error().Line, 3u);
}

TEST_F(ParserTest, ParseSingleFormula) {
  auto Spec = parse("inputs { int x; } cells { int y; }");
  ASSERT_TRUE(Spec.ok());
  auto F = parseFormula("G (x < y -> [y <- x])", *Spec, Ctx);
  ASSERT_TRUE(F.ok()) << F.error().str();
  EXPECT_EQ((*F)->kind(), Formula::Kind::Globally);
}

TEST_F(ParserTest, ParseSingleFormulaRejectsTrailing) {
  auto Spec = parse("inputs { bool p; }");
  ASSERT_TRUE(Spec.ok());
  EXPECT_FALSE(parseFormula("p p", *Spec, Ctx).ok());
}

TEST_F(ParserTest, SpecNameBlock) {
  auto Spec = parse("spec CFS inputs { bool p; }");
  ASSERT_TRUE(Spec.ok());
  EXPECT_EQ(Spec->Name, "CFS");
}

TEST_F(ParserTest, RoundTripThroughStr) {
  std::string Source = R"(
    #LIA#
    inputs { int x; }
    cells { int y = 0; }
    always guarantee { G (x < y -> [y <- x + 1]); }
  )";
  auto Spec = parse(Source);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  std::string Printed = Spec->str();
  Context Ctx2;
  auto Reparsed = parseSpecification(Printed, Ctx2);
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.error().str() << "\n" << Printed;
  ASSERT_EQ(Reparsed->AlwaysGuarantees.size(), 1u);
  EXPECT_EQ(Reparsed->AlwaysGuarantees[0]->str(),
            Spec->AlwaysGuarantees[0]->str());
}

TEST_F(ParserTest, NegativeNumeral) {
  auto Spec = parse(R"(
    #LIA#
    cells { int x = -5; }
    always guarantee { x < -1 -> [x <- x + 1]; }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  EXPECT_EQ(Spec->Cells[0].Init->value(), Rational(-5));
}

TEST_F(ParserTest, AssumeBlockParsed) {
  auto Spec = parse(R"(
    #LIA#
    inputs { int ball; }
    cells { int p = 0; }
    always assume { ball >= c0(); ball <= c9(); }
    always guarantee { G (p < ball -> [p <- p + 1]); }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  ASSERT_EQ(Spec->Assumptions.size(), 2u);
  EXPECT_EQ(Spec->Assumptions[0]->str(), "(ball >= 0)");
}

TEST_F(ParserTest, MissingSemicolonFails) {
  EXPECT_FALSE(parse("inputs { bool p } ").ok());
}

TEST_F(ParserTest, UnbalancedParenFails) {
  EXPECT_FALSE(parse(R"(
    inputs { bool p; }
    always guarantee { (p && p; }
  )").ok());
}

TEST_F(ParserTest, UnterminatedUpdateFails) {
  EXPECT_FALSE(parse(R"(
    cells { int x; }
    always guarantee { [x <- x + 1; }
  )").ok());
}

TEST_F(ParserTest, UntilIsRightAssociative) {
  auto Spec = parse(R"(
    inputs { bool a, b, c; }
    always guarantee { a U b U c; }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  const Formula *F = Spec->AlwaysGuarantees[0];
  ASSERT_EQ(F->kind(), Formula::Kind::Until);
  EXPECT_EQ(F->rhs()->kind(), Formula::Kind::Until);
}

TEST_F(ParserTest, ComparisonChainsRejected) {
  // Comparisons are non-associative: after a < b the parser does not
  // take the second '<' and the block reports a missing ';' there
  // (DiagnosticsTest pins the location).
  auto Spec = parse(R"(
    inputs { int a, b, c; }
    always guarantee { a < b < c; }
  )");
  EXPECT_FALSE(Spec.ok());
}

TEST_F(ParserTest, OpaqueEqualityAllowed) {
  auto Spec = parse(R"(
    inputs { opaque t1, t2; }
    cells { int x = 0; }
    always guarantee { G (t1 = t2 -> [x <- x + 1]); }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
}

TEST_F(ParserTest, MultiplicationParses) {
  auto Spec = parse(R"(
    #LIA#
    inputs { int a; }
    cells { int x = 0; }
    always guarantee { G (2 * a < x -> [x <- x]); }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
}

TEST_F(ParserTest, FunctionsWithArity) {
  auto Spec = parse(R"(
    #UF#
    inputs { opaque a, b; }
    cells { opaque y; }
    functions { opaque g(opaque, opaque); }
    always guarantee { [y <- g a b]; }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  // Wrong arity fails.
  auto Bad = parse(R"(
    #UF#
    inputs { opaque a; }
    cells { opaque y; }
    functions { opaque g(opaque, opaque); }
    always guarantee { [y <- g a]; }
  )");
  EXPECT_FALSE(Bad.ok());
}

TEST_F(ParserTest, BenchmarkHeaderStyleComment) {
  auto Spec = parse(R"(
    // #RA# annotation as in Fig. 5 of the paper:
    #RA#
    cells { real lfoFreq = 0; bool lfo; }
    always guarantee {
      G F [lfo <- True()];
    }
  )");
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  EXPECT_EQ(Spec->Th, Theory::LRA);
}

} // namespace
