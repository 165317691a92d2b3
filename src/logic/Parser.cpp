//===- logic/Parser.cpp - TSL-MT concrete syntax parser -------------------===//

#include "logic/Parser.h"

#include "logic/Builtin.h"

#include <cctype>
#include <climits>

using namespace temos;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

enum class TokenKind {
  Ident,
  Number,
  Punct,
  End,
};

struct Token {
  TokenKind Kind = TokenKind::End;
  std::string Text;
  size_t Line = 1;
  size_t Col = 1;

  bool is(TokenKind K) const { return Kind == K; }
  bool isPunct(const char *P) const {
    return Kind == TokenKind::Punct && Text == P;
  }
  bool isIdent(const char *I) const {
    return Kind == TokenKind::Ident && Text == I;
  }
};

class Lexer {
public:
  Lexer(const std::string &Source) : Source(Source) { tokenize(); }

  const std::vector<Token> &tokens() const { return Tokens; }
  bool hadError() const { return !Error.Message.empty(); }
  const ParseError &error() const { return Error; }

private:
  void tokenize();
  void fail(const std::string &Message, size_t Col) {
    Error = {Line, Col, Message};
  }

  const std::string &Source;
  std::vector<Token> Tokens;
  ParseError Error;
  size_t Line = 1;
};

void Lexer::tokenize() {
  size_t I = 0;
  const size_t N = Source.size();
  // Offset of the first character of the current line; columns are
  // 1-based offsets from it.
  size_t LineStart = 0;
  auto Col = [&](size_t Pos) { return Pos - LineStart + 1; };
  // Multi-character punctuation, longest first (maximal munch).
  static const char *MultiPunct[] = {"<->", "<-", "<=", ">=", "->", "&&",
                                     "||", "!=", "=="};
  while (I < N) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      ++I;
      LineStart = I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    // Line comments: // ... \n.
    if (C == '/' && I + 1 < N && Source[I + 1] == '/') {
      while (I < N && Source[I] != '\n')
        ++I;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_' || Source[I] == '\''))
        ++I;
      Tokens.push_back({TokenKind::Ident, Source.substr(Start, I - Start),
                        Line, Col(Start)});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = I;
      while (I < N && (std::isdigit(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '.'))
        ++I;
      Tokens.push_back({TokenKind::Number, Source.substr(Start, I - Start),
                        Line, Col(Start)});
      continue;
    }
    bool Matched = false;
    for (const char *P : MultiPunct) {
      size_t Len = std::string(P).size();
      if (Source.compare(I, Len, P) == 0) {
        Tokens.push_back({TokenKind::Punct, P, Line, Col(I)});
        I += Len;
        Matched = true;
        break;
      }
    }
    if (Matched)
      continue;
    static const std::string Single = "{}()[];,=<>+-*/!#";
    if (Single.find(C) != std::string::npos) {
      Tokens.push_back({TokenKind::Punct, std::string(1, C), Line, Col(I)});
      ++I;
      continue;
    }
    fail(std::string("unexpected character '") + C + "'", Col(I));
    return;
  }
  Tokens.push_back({TokenKind::End, "", Line, Col(I)});
}

//===----------------------------------------------------------------------===//
// Expression values: a parsed expression is a Term, a Formula, or (for
// Bool-sorted terms) convertible between the two.
//===----------------------------------------------------------------------===//

struct ExprValue {
  const Term *T = nullptr;
  const Formula *F = nullptr;

  bool isTerm() const { return T != nullptr; }
  bool isFormula() const { return F != nullptr; }
};

//===----------------------------------------------------------------------===//
// Operator tables
//===----------------------------------------------------------------------===//

enum class Assoc { Left, Right, None };

/// A binary operator of docs/LANGUAGE.md's precedence table, levels 1
/// (loosest) to 8. A formula connective combines its operands with
/// \c Make; a term operator (\c Make null) applies the builtin \c Symbol.
struct BinaryOp {
  const char *Spelling;
  int Level;
  Assoc Associativity;
  const Formula *(FormulaFactory::*Make)(const Formula *, const Formula *);
  const char *Symbol;
};

const BinaryOp BinaryOps[] = {
    {"<->", 1, Assoc::Left, &FormulaFactory::iff, nullptr},
    {"->", 2, Assoc::Right, &FormulaFactory::implies, nullptr},
    {"||", 3, Assoc::Left, &FormulaFactory::orF, nullptr},
    {"&&", 4, Assoc::Left, &FormulaFactory::andF, nullptr},
    {"U", 5, Assoc::Right, &FormulaFactory::until, nullptr},
    {"W", 5, Assoc::Right, &FormulaFactory::weakUntil, nullptr},
    {"R", 5, Assoc::Right, &FormulaFactory::release, nullptr},
    {"<", 6, Assoc::None, nullptr, "<"},
    {"<=", 6, Assoc::None, nullptr, "<="},
    {">", 6, Assoc::None, nullptr, ">"},
    {">=", 6, Assoc::None, nullptr, ">="},
    {"=", 6, Assoc::None, nullptr, "="},
    {"==", 6, Assoc::None, nullptr, "="},
    {"!=", 6, Assoc::None, nullptr, "!="},
    {"+", 7, Assoc::Left, nullptr, "+"},
    {"-", 7, Assoc::Left, nullptr, "-"},
    {"*", 8, Assoc::Left, nullptr, "*"},
};

/// The loosest level, where a formula starts.
constexpr int FormulaLevel = 1;
/// The loosest term operator's level, where cell initialisers, update
/// values and parenthesised application arguments start.
constexpr int TermLevel = 6;

/// Prefix formula operators (level 9, with unary minus on terms).
const struct {
  const char *Spelling;
  const Formula *(FormulaFactory::*Make)(const Formula *);
} PrefixOps[] = {
    {"!", &FormulaFactory::notF},
    {"X", &FormulaFactory::next},
    {"F", &FormulaFactory::finallyF},
    {"G", &FormulaFactory::globally},
};

// Operator tokens are told apart by text alone: identifiers and
// punctuation never share a spelling.
const BinaryOp *binaryOp(const Token &T) {
  for (const BinaryOp &Op : BinaryOps)
    if (T.Text == Op.Spelling)
      return &Op;
  return nullptr;
}

bool isPrefixKeyword(const Token &T) {
  for (const auto &Op : PrefixOps)
    if (T.Text == Op.Spelling)
      return true;
  return false;
}

/// True when \p T can start a juxtaposed application argument: a
/// numeral, '(' or an identifier that is no operator or boolean literal.
bool startsArgument(const Token &T) {
  if (T.is(TokenKind::Number) || T.isPunct("("))
    return true;
  return T.is(TokenKind::Ident) && !binaryOp(T) && !isPrefixKeyword(T) &&
         T.Text != "true" && T.Text != "false";
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

class Parser {
public:
  Parser(const std::string &Source, Context &Ctx, ParseError &Err)
      : Lex(Source), Ctx(Ctx), Err(Err) {
    if (Lex.hadError()) {
      Err = Lex.error();
      Failed = true;
    }
  }

  std::optional<Specification> parseSpec();
  const Formula *parseSingleFormula(const Specification &Against);

private:
  // Token plumbing.
  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    const auto &Tokens = Lex.tokens();
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  Token take() {
    Token T = peek();
    if (Pos + 1 < Lex.tokens().size())
      ++Pos;
    return T;
  }
  bool acceptPunct(const char *P) {
    if (!peek().isPunct(P))
      return false;
    take();
    return true;
  }
  bool acceptIdent(const char *I) {
    if (!peek().isIdent(I))
      return false;
    take();
    return true;
  }
  bool isNullaryCall(size_t Ahead) const {
    return peek(Ahead).isPunct("(") && peek(Ahead + 1).isPunct(")");
  }
  bool expectPunct(const char *P);
  bool fail(const std::string &Message);
  bool fail(const std::string &Message, const Token &At);

  // Declarations.
  bool parseHeader();
  template <typename EntryFn> bool parseDeclBlock(EntryFn ReadEntry);
  /// Takes the identifier naming a \p What; on anything else reports
  /// "expected <What> name<Suffix>" at the token after it.
  bool takeName(const char *What, std::string &Name,
                const char *Suffix = "");
  bool parseSignalBlock(std::vector<SignalDecl> &Out);
  bool parseCellBlock();
  bool parseFunctionBlock();
  bool parseFormulaBlock(std::vector<const Formula *> &Out);

  // Expressions.
  /// Precedence climbing over BinaryOps: an expression whose binary
  /// operators all bind at \p MinLevel or tighter.
  ExprValue parseExpr(int MinLevel);
  const Term *parseTerm() { return asTerm(parseExpr(TermLevel)); }
  ExprValue combine(const BinaryOp &Op, const Token &OpTok,
                    const ExprValue &Left, const ExprValue &Right);
  ExprValue parsePrefix();
  ExprValue parsePrimary();
  /// A primary that can appear as a juxtaposed application argument:
  /// identifier, numeral, nullary call, or parenthesized term.
  const Term *parseArgumentTerm();

  const Formula *asFormula(const ExprValue &V);
  const Term *asTerm(const ExprValue &V);
  /// Applies the function \p Name to \p Args; a declared function's
  /// argument of the wrong sort is reported at its first token, the
  /// matching entry of \p ArgToks.
  const Term *applyFunction(const Token &Name,
                            const std::vector<const Term *> &Args,
                            const std::vector<Token> &ArgToks);
  /// Fails at \p At unless term \p T may stand where sort \p Want is
  /// expected (compatibleSorts); \p Where names the place.
  bool expectSort(Sort Want, const Term *T, const Token &At,
                  const std::string &Where);
  /// Applies \p B after checking its arity and its sort rule; a sort
  /// error is reported at \p At, the operator.
  const Term *applyBuiltin(const Builtin &B, const Token &At,
                           const std::vector<const Term *> &Args);
  Sort numeralSort() const {
    return Spec.Th == Theory::LRA ? Sort::Real : Sort::Int;
  }

  Lexer Lex;
  Context &Ctx;
  ParseError &Err;
  size_t Pos = 0;
  bool Failed = false;
  Specification Spec;
};

bool Parser::fail(const std::string &Message) { return fail(Message, peek()); }

/// Anchors the diagnostic at \p At rather than the current token — used
/// when the offending token was already consumed, so the error points at
/// the culprit instead of whatever follows it.
bool Parser::fail(const std::string &Message, const Token &At) {
  if (!Failed) {
    Failed = true;
    Err.Line = At.Line;
    Err.Column = At.Col;
    Err.Message = Message;
  }
  return false;
}

bool Parser::expectPunct(const char *P) {
  if (acceptPunct(P))
    return true;
  return fail(std::string("expected '") + P + "' but found '" + peek().Text +
              "'");
}

bool Parser::parseHeader() {
  // Optional "#LIA#"-style theory annotation.
  if (!peek().isPunct("#"))
    return true;
  take();
  Token Name = take();
  if (!Name.is(TokenKind::Ident))
    return fail("expected theory name after '#'");
  if (Name.Text == "LIA")
    Spec.Th = Theory::LIA;
  else if (Name.Text == "RA" || Name.Text == "LRA")
    Spec.Th = Theory::LRA;
  else if (Name.Text == "UF" || Name.Text == "TSL")
    Spec.Th = Theory::UF;
  else
    return fail("unknown theory '" + Name.Text + "' (expected LIA/RA/UF)",
                Name);
  return expectPunct("#");
}

/// Reads a `{ Sort ...; ... }` block; \p ReadEntry reads what follows
/// each sort, up to the ';'.
template <typename EntryFn> bool Parser::parseDeclBlock(EntryFn ReadEntry) {
  if (!expectPunct("{"))
    return false;
  while (!acceptPunct("}")) {
    Token SortTok = take();
    Sort S;
    if (!SortTok.is(TokenKind::Ident) || !parseSort(SortTok.Text, S))
      return fail("expected sort name, found '" + SortTok.Text + "'", SortTok);
    if (!ReadEntry(S) || !expectPunct(";"))
      return false;
  }
  return true;
}

bool Parser::takeName(const char *What, std::string &Name,
                      const char *Suffix) {
  Token T = take();
  if (!T.is(TokenKind::Ident))
    return fail(std::string("expected ") + What + " name" + Suffix);
  Name = T.Text;
  return true;
}

bool Parser::parseSignalBlock(std::vector<SignalDecl> &Out) {
  return parseDeclBlock([&](Sort S) {
    do {
      std::string Name;
      if (!takeName("signal", Name))
        return false;
      Out.push_back({Name, S});
    } while (acceptPunct(","));
    return true;
  });
}

bool Parser::parseCellBlock() {
  return parseDeclBlock([&](Sort S) {
    std::string Name;
    if (!takeName("cell", Name))
      return false;
    const Term *Init = nullptr;
    if (acceptPunct("=")) {
      const Token InitTok = peek();
      if (!(Init = parseTerm()) ||
          !expectSort(S, Init, InitTok,
                      "initial value of cell '" + Name + "'"))
        return false;
    }
    Spec.Cells.push_back({Name, S, Init});
    return true;
  });
}

bool Parser::parseFunctionBlock() {
  return parseDeclBlock([&](Sort Result) {
    std::string Name;
    if (!takeName("function", Name) || !expectPunct("("))
      return false;
    std::vector<Sort> Params;
    if (!peek().isPunct(")")) {
      do {
        Token P = take();
        Sort PS;
        if (!P.is(TokenKind::Ident) || !parseSort(P.Text, PS))
          return fail("expected parameter sort", P);
        Params.push_back(PS);
      } while (acceptPunct(","));
    }
    if (!expectPunct(")"))
      return false;
    Spec.Functions.push_back({Name, Result, Params});
    return true;
  });
}

bool Parser::parseFormulaBlock(std::vector<const Formula *> &Out) {
  if (!expectPunct("{"))
    return false;
  while (!acceptPunct("}")) {
    const Formula *F = asFormula(parseExpr(FormulaLevel));
    if (!F)
      return false;
    Out.push_back(F);
    if (!expectPunct(";"))
      return false;
  }
  return true;
}

std::optional<Specification> Parser::parseSpec() {
  if (Failed || !parseHeader())
    return std::nullopt;
  while (!peek().is(TokenKind::End)) {
    bool Ok;
    if (acceptIdent("inputs"))
      Ok = parseSignalBlock(Spec.Inputs);
    else if (acceptIdent("outputs"))
      Ok = parseSignalBlock(Spec.Outputs);
    else if (acceptIdent("cells"))
      Ok = parseCellBlock();
    else if (acceptIdent("functions"))
      Ok = parseFunctionBlock();
    else if (acceptIdent("always")) {
      if (acceptIdent("assume"))
        Ok = parseFormulaBlock(Spec.Assumptions);
      else if (acceptIdent("guarantee"))
        Ok = parseFormulaBlock(Spec.AlwaysGuarantees);
      else
        Ok = fail("expected 'assume' or 'guarantee' after 'always'");
    } else if (acceptIdent("guarantee"))
      Ok = parseFormulaBlock(Spec.Guarantees);
    else if (acceptIdent("spec"))
      Ok = takeName("specification", Spec.Name, " after 'spec'");
    else
      Ok = fail("expected a block keyword, found '" + peek().Text + "'");
    if (!Ok)
      return std::nullopt;
  }
  return std::move(Spec);
}

const Formula *Parser::parseSingleFormula(const Specification &Against) {
  if (Failed)
    return nullptr;
  Spec = Against; // Borrow declarations for symbol lookup.
  ExprValue V = parseExpr(FormulaLevel);
  if (Failed)
    return nullptr;
  if (!peek().is(TokenKind::End)) {
    fail("trailing input after formula: '" + peek().Text + "'");
    return nullptr;
  }
  return asFormula(V);
}

//===----------------------------------------------------------------------===//
// Expression parsing
//===----------------------------------------------------------------------===//

const Formula *Parser::asFormula(const ExprValue &V) {
  if (Failed)
    return nullptr;
  if (V.isFormula())
    return V.F;
  if (V.isTerm()) {
    if (V.T->sort() != Sort::Bool) {
      fail("term '" + V.T->str() + "' used as a formula but has sort " +
           sortName(V.T->sort()));
      return nullptr;
    }
    return Ctx.Formulas.pred(V.T);
  }
  fail("expected a formula");
  return nullptr;
}

const Term *Parser::asTerm(const ExprValue &V) {
  if (Failed)
    return nullptr;
  if (V.isTerm())
    return V.T;
  fail("expected a term, found a temporal formula");
  return nullptr;
}

bool Parser::expectSort(Sort Want, const Term *T, const Token &At,
                        const std::string &Where) {
  if (compatibleSorts(Want, T->sort()))
    return true;
  return fail(Where + " expects " + sortName(Want) + ", got " +
                  sortName(T->sort()) + " term '" + T->str() + "'",
              At);
}

const Term *Parser::applyBuiltin(const Builtin &B, const Token &At,
                                 const std::vector<const Term *> &Args) {
  std::string Name = std::string("builtin '") + B.Symbol + "'";
  if (Args.size() != 2) {
    fail(Name + " expects 2 arguments, got " + std::to_string(Args.size()));
    return nullptr;
  }
  Sort L = Args[0]->sort(), R = Args[1]->sort();
  std::optional<Sort> Result = B.resultSort(L, R);
  if (!Result) {
    if (B.Sorts == Builtin::Rule::Equality)
      fail(Name + " expects numeric or same-sort arguments, got " +
               sortName(L) + " and " + sortName(R),
           At);
    else
      fail(Name + " expects numeric arguments, got " +
               sortName(isNumericSort(L) ? R : L),
           At);
    return nullptr;
  }
  return Ctx.Terms.apply(B.Symbol, *Result, Args);
}

const Term *Parser::applyFunction(const Token &NameTok,
                                  const std::vector<const Term *> &Args,
                                  const std::vector<Token> &ArgToks) {
  const std::string &Name = NameTok.Text;
  if (const Builtin *B = findBuiltinWord(Name))
    return applyBuiltin(*B, NameTok, Args);

  // Declared functions.
  for (const FunctionDecl &D : Spec.Functions) {
    if (D.Name != Name)
      continue;
    if (D.Params.size() != Args.size()) {
      fail("function '" + Name + "' expects " +
           std::to_string(D.Params.size()) + " arguments, got " +
           std::to_string(Args.size()));
      return nullptr;
    }
    for (size_t I = 0; I < Args.size(); ++I)
      if (!expectSort(D.Params[I], Args[I], ArgToks[I],
                      "argument " + std::to_string(I + 1) + " of function '" +
                          Name + "'"))
        return nullptr;
    return Ctx.Terms.apply(Name, D.Result, Args);
  }

  // "cN()"-style numeric constants (Fig. 5 uses c10(), c1()).
  if (Args.empty() && Name.size() > 1 && Name[0] == 'c' &&
      std::isdigit(static_cast<unsigned char>(Name[1]))) {
    Rational Value;
    if (Rational::parse(Name.substr(1), Value))
      return Ctx.Terms.numeral(Value, numeralSort());
  }
  // Boolean constants True()/False().
  if (Args.empty() && (Name == "True" || Name == "False"))
    return Ctx.Terms.apply(Name, Sort::Bool, {});
  // Other nullary symbols default to opaque constants (e.g. idle()).
  if (Args.empty())
    return Ctx.Terms.apply(Name, Sort::Opaque, {});

  fail("unknown function '" + Name + "'; declare it in a functions block");
  return nullptr;
}

ExprValue Parser::parseExpr(int MinLevel) {
  ExprValue Left = parsePrefix();
  // After a non-associative operator only looser ones may follow, so
  // `a < b < c` stops before the second '<'.
  int MaxLevel = INT_MAX;
  while (!Failed) {
    const BinaryOp *Op = binaryOp(peek());
    if (!Op || Op->Level < MinLevel || Op->Level > MaxLevel)
      break;
    Token OpTok = take();
    ExprValue Right = parseExpr(
        Op->Associativity == Assoc::Right ? Op->Level : Op->Level + 1);
    Left = combine(*Op, OpTok, Left, Right);
    if (Op->Associativity == Assoc::None)
      MaxLevel = Op->Level - 1;
  }
  return Left;
}

/// Converts both operands only after the right one is parsed, so a
/// conversion error points past the right operand.
ExprValue Parser::combine(const BinaryOp &Op, const Token &OpTok,
                          const ExprValue &Left, const ExprValue &Right) {
  if (Op.Make) {
    const Formula *A = asFormula(Left);
    const Formula *B = asFormula(Right);
    if (!A || !B)
      return {};
    return {nullptr, (Ctx.Formulas.*Op.Make)(A, B)};
  }
  const Term *A = asTerm(Left);
  const Term *B = asTerm(Right);
  if (!A || !B)
    return {};
  return {applyBuiltin(*findBuiltin(Op.Symbol), OpTok, {A, B}), nullptr};
}

ExprValue Parser::parsePrefix() {
  if (peek().isPunct("-")) {
    Token Minus = take();
    const Term *T = asTerm(parsePrefix());
    if (!T)
      return {};
    if (T->isNumeral())
      return {Ctx.Terms.numeral(-T->value(), T->sort()), nullptr};
    // 0 - t; a non-numeric t breaks the builtin's sort rule.
    const Term *Zero = Ctx.Terms.numeral(
        Rational(0), T->sort() == Sort::Real ? Sort::Real : Sort::Int);
    return {applyBuiltin(*findBuiltin("-"), Minus, {Zero, T}), nullptr};
  }
  for (const auto &Op : PrefixOps) {
    if (peek().Text != Op.Spelling)
      continue;
    take();
    const Formula *F = asFormula(parsePrefix());
    if (!F)
      return {};
    return {nullptr, (Ctx.Formulas.*Op.Make)(F)};
  }
  return parsePrimary();
}

const Term *Parser::parseArgumentTerm() {
  Token T = take();
  if (T.is(TokenKind::Number)) {
    Rational Value;
    if (!Rational::parse(T.Text, Value)) {
      fail("malformed numeral '" + T.Text + "'", T);
      return nullptr;
    }
    Sort S = Value.isInteger() ? numeralSort() : Sort::Real;
    return Ctx.Terms.numeral(Value, S);
  }
  if (T.isPunct("(")) {
    ExprValue V = parseExpr(TermLevel);
    if (Failed || !expectPunct(")"))
      return nullptr;
    return asTerm(V);
  }
  // An identifier: nullary call "f()" or signal.
  if (isNullaryCall(0)) {
    take();
    take();
    return applyFunction(T, {}, {});
  }
  if (auto S = Spec.signalSort(T.Text))
    return Ctx.Terms.signal(T.Text, *S);
  fail("unknown signal '" + T.Text + "'", T);
  return nullptr;
}

ExprValue Parser::parsePrimary() {
  const Token &T = peek();

  // Boolean literals.
  if (T.isIdent("true")) {
    take();
    return {nullptr, Ctx.Formulas.trueF()};
  }
  if (T.isIdent("false")) {
    take();
    return {nullptr, Ctx.Formulas.falseF()};
  }

  // Update term [cell <- term].
  if (T.isPunct("[")) {
    take();
    Token Cell = take();
    if (!Cell.is(TokenKind::Ident)) {
      fail("expected cell name in update term");
      return {};
    }
    if (!Spec.isUpdatable(Cell.Text)) {
      fail("'" + Cell.Text + "' is not a cell or output; cannot be updated",
           Cell);
      return {};
    }
    if (!expectPunct("<-"))
      return {};
    const Token ValueTok = peek();
    const Term *Value = parseTerm();
    const CellDecl *C = Spec.findCell(Cell.Text);
    const Sort CellSort = C ? C->S : Spec.findOutput(Cell.Text)->S;
    if (!Value ||
        !expectSort(CellSort, Value, ValueTok,
                    "update of '" + Cell.Text + "'") ||
        !expectPunct("]"))
      return {};
    return {nullptr, Ctx.Formulas.update(Cell.Text, Value)};
  }

  // Parenthesized formula or term.
  if (T.isPunct("(")) {
    take();
    ExprValue V = parseExpr(FormulaLevel);
    if (Failed || !expectPunct(")"))
      return {};
    return V;
  }

  if (!T.is(TokenKind::Ident) && !T.is(TokenKind::Number)) {
    fail("expected a formula or term, found '" + T.Text + "'");
    return {};
  }

  // Prefix application f a1 a2 ...: an identifier that is neither a
  // nullary call nor a signal (signals never take juxtaposed arguments),
  // followed by an argument. Arguments are taken greedily.
  if (T.is(TokenKind::Ident) && startsArgument(peek(1)) && !isNullaryCall(1) &&
      !Spec.signalSort(T.Text)) {
    Token Name = take();
    std::vector<const Term *> Args;
    std::vector<Token> ArgToks;
    while (startsArgument(peek())) {
      ArgToks.push_back(peek());
      const Term *Arg = parseArgumentTerm();
      if (!Arg)
        return {};
      Args.push_back(Arg);
    }
    return {applyFunction(Name, Args, ArgToks), nullptr};
  }

  // Numeral, nullary call or signal. A bare unknown identifier is an
  // undeclared signal, not a nullary constant: constants require the
  // explicit "name()" call syntax.
  return {parseArgumentTerm(), nullptr};
}

} // namespace

ParseResult<Specification>
temos::parseSpecification(const std::string &Source, Context &Ctx) {
  ParseError Err;
  Parser P(Source, Ctx, Err);
  if (std::optional<Specification> Spec = P.parseSpec())
    return std::move(*Spec);
  return Err;
}

ParseResult<const Formula *>
temos::parseFormula(const std::string &Source, const Specification &Spec,
                    Context &Ctx) {
  ParseError Err;
  Parser P(Source, Ctx, Err);
  if (const Formula *F = P.parseSingleFormula(Spec))
    return F;
  return Err;
}
