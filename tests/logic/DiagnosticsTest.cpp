//===- tests/logic/DiagnosticsTest.cpp - Parse diagnostic quality ---------===//
///
/// \file
/// Table-driven checks that ParseError carries the right 1-based
/// line/column and a message naming the culprit, for a spread of
/// malformed specifications. Columns anchor on the offending token, not
/// on whatever the parser happened to be looking at when it noticed.
///
//===----------------------------------------------------------------------===//

#include "logic/Parser.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

struct DiagnosticCase {
  const char *Label;
  const char *Source;
  size_t Line;
  size_t Column;
  /// Substring the message must contain (full messages stay free to
  /// gain detail without churning this table).
  const char *MessagePart;
};

const DiagnosticCase Cases[] = {
    {"unknown-theory", "#XYZ#", 1, 2, "unknown theory 'XYZ'"},
    {"missing-theory-name", "#", 1, 2, "expected theory name after '#'"},
    {"unexpected-character",
     "inputs { bool p; }\nalways guarantee {\n  p $ p;\n}", 3, 5,
     "unexpected character '$'"},
    {"missing-semicolon", "inputs { bool p }", 1, 17,
     "expected ';' but found '}'"},
    {"bad-sort", "inputs { integer x; }", 1, 10,
     "expected sort name, found 'integer'"},
    {"update-of-non-cell",
     "inputs { int x; }\ncells { int c; }\nalways guarantee { [y <- x]; }", 3,
     21, "'y' is not a cell or output"},
    {"unknown-signal", "inputs { bool p; }\nalways guarantee {\n  q;\n}", 3, 3,
     "unknown signal 'q'"},
    {"unknown-function", "inputs { bool p; }\nalways guarantee { foo p; }", 2,
     25, "unknown function 'foo'"},
    {"builtin-arity", "inputs { int x; }\nalways guarantee { lt x; }", 2, 24,
     "builtin '<' expects 2 arguments, got 1"},
    {"malformed-numeral", "inputs { int x; }\nalways guarantee { x < 1.2.3; }",
     2, 24, "malformed numeral '1.2.3'"},
    {"term-as-formula", "inputs { int x; }\nalways guarantee { x; }", 2, 21,
     "term 'x' used as a formula but has sort int"},
    {"always-without-block-kind", "always foo { }", 1, 8,
     "expected 'assume' or 'guarantee' after 'always'"},
    {"stray-toplevel-ident", "bogus", 1, 1,
     "expected a block keyword, found 'bogus'"},
    {"dangling-comparison", "inputs { int x; }\nalways guarantee { x < ; }", 2,
     24, "expected a formula or term, found ';'"},
    {"spec-without-name", "spec", 1, 5,
     "expected specification name after 'spec'"},
    {"bad-parameter-sort", "functions { bool f(; }", 1, 20,
     "expected parameter sort"},
    {"comparison-chain",
     "inputs { int a, b, c; }\nalways guarantee { a < b < c; }", 2, 26,
     "expected ';' but found '<'"},
    {"term-operand-of-iff",
     "inputs { int x; bool y; }\nalways guarantee { x + 1 <-> y; }", 2, 31,
     "term '(x + 1)' used as a formula but has sort int"},
    {"missing-cell-name", "cells { int }", 1, 14, "expected cell name"},
    {"missing-parameter-list", "functions { bool f }", 1, 20,
     "expected '(' but found '}'"},
    {"order-on-bool", "inputs { int c; bool p; } always guarantee { p < c; }",
     1, 48, "builtin '<' expects numeric arguments, got bool"},
    {"arithmetic-on-bool",
     "inputs { bool p; }\ncells { int d; }\nalways guarantee { [d <- p + 1]; }",
     3, 28, "builtin '+' expects numeric arguments, got bool"},
    {"equality-across-sorts",
     "#UF#\ninputs { opaque o; int c; }\nalways guarantee { o = c; }", 3, 22,
     "builtin '=' expects numeric or same-sort arguments, got opaque and int"},
    {"order-on-opaque",
     "#UF#\ninputs { opaque o, q; }\nalways guarantee { o <= q; }", 3, 22,
     "builtin '<=' expects numeric arguments, got opaque"},
    {"update-sort",
     "inputs { bool p; }\ncells { int c; }\nalways guarantee { [c <- p]; }", 3,
     26, "update of 'c' expects int, got bool term 'p'"},
    {"output-update-sort",
     "inputs { int x; }\noutputs { bool o; }\nalways guarantee { [o <- x + 1]; }",
     3, 26, "update of 'o' expects bool, got int term '(x + 1)'"},
    {"function-argument-sort",
     "#UF#\ninputs { int x; }\nfunctions { opaque g(opaque); }\n"
     "cells { opaque y; }\nalways guarantee { [y <- g x]; }",
     5, 28, "argument 1 of function 'g' expects opaque, got int term 'x'"},
    {"second-argument-sort",
     "#UF#\ninputs { int x; opaque o; }\nfunctions { opaque h(opaque, int); }\n"
     "cells { opaque y; }\nalways guarantee { [y <- h o o]; }",
     5, 30, "argument 2 of function 'h' expects int, got opaque term 'o'"},
    {"cell-initialiser-sort", "inputs { bool p; }\ncells { int c = p; }", 2,
     17, "initial value of cell 'c' expects int, got bool term 'p'"},
    {"word-spelling-sort",
     "inputs { int c; bool p; }\nalways guarantee { lt p c; }", 2, 20,
     "builtin '<' expects numeric arguments, got bool"},
    {"negated-bool", "inputs { bool p; }\nalways guarantee { - p; }", 2, 20,
     "builtin '-' expects numeric arguments, got bool"},
};

TEST(DiagnosticsTest, MalformedSpecsReportPreciseLocations) {
  for (const DiagnosticCase &C : Cases) {
    SCOPED_TRACE(C.Label);
    Context Ctx;
    auto Spec = parseSpecification(C.Source, Ctx);
    ASSERT_FALSE(Spec.ok()) << "expected a parse failure";
    const ParseError &Err = Spec.error();
    EXPECT_EQ(Err.Line, C.Line);
    EXPECT_EQ(Err.Column, C.Column);
    EXPECT_NE(Err.Message.find(C.MessagePart), std::string::npos)
        << "message was: " << Err.Message;
  }
}

TEST(DiagnosticsTest, StrIncludesLineAndColumn) {
  Context Ctx;
  auto Spec = parseSpecification("#XYZ#", Ctx);
  ASSERT_FALSE(Spec.ok());
  EXPECT_EQ(Spec.error().str(),
            "line 1, col 2: unknown theory 'XYZ' (expected LIA/RA/UF)");
}

TEST(DiagnosticsTest, ColumnZeroOmittedFromStr) {
  ParseError Err;
  Err.Line = 7;
  Err.Message = "legacy error";
  EXPECT_EQ(Err.str(), "line 7: legacy error");
}

TEST(DiagnosticsTest, FormulaParseCarriesLocation) {
  Context Ctx;
  auto Spec = parseSpecification("inputs { bool p; }", Ctx);
  ASSERT_TRUE(Spec.ok());
  auto F = parseFormula("p && nope", *Spec, Ctx);
  ASSERT_FALSE(F.ok());
  EXPECT_EQ(F.error().Line, 1u);
  EXPECT_EQ(F.error().Column, 6u);
  EXPECT_NE(F.error().Message.find("unknown signal 'nope'"),
            std::string::npos);
}

} // namespace
