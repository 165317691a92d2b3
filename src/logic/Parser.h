//===- logic/Parser.h - TSL-MT concrete syntax parser ----------*- C++ -*-===//
///
/// \file
/// Parser for the TSL-MT benchmark format. The syntax mirrors the
/// temos/tsltools specifications shown in the paper (Fig. 5), extended
/// with explicit signal/function declarations:
///
/// \code
///   #LIA#
///   inputs  { int task1; bool enq1; }
///   cells   { int vruntime1 = 0; }
///   outputs { int next_task; }
///   functions { opaque idle(); }
///   always assume { ... ; }
///   always guarantee {
///     [next_task <- task1] || [next_task <- task2];
///     G (vruntime1 < vruntime2 -> ! [next_task <- task2]);
///     lte x c10() -> [lfo <- False()] U gt x c10();
///   }
/// \endcode
///
/// Terms support both prefix application (`add lfoFreq c1()`, `lt x y`)
/// and infix sugar (`lfoFreq + 1`, `x < y`); both build the same AST.
/// The builtin symbols, their word spellings and their sort rule come
/// from logic/Builtin.h; an ill-sorted builtin application (`p < c`
/// with `bool p`) is a diagnostic at the operator.
///
/// Binary operators are parsed by one precedence-climbing loop over the
/// operator table of docs/LANGUAGE.md (levels, associativity, and
/// whether the operands are formulas or terms). Diagnostics carry the
/// 1-based line and column of the offending token.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_LOGIC_PARSER_H
#define TEMOS_LOGIC_PARSER_H

#include "logic/Specification.h"

#include <optional>
#include <string>

namespace temos {

/// A parse failure with 1-based source line/column information.
struct ParseError {
  size_t Line = 0;
  /// 1-based column of the offending token; 0 when unknown (kept for
  /// errors constructed before column tracking existed).
  size_t Column = 0;
  std::string Message;

  std::string str() const {
    std::string Out = "line " + std::to_string(Line);
    if (Column != 0)
      Out += ", col " + std::to_string(Column);
    return Out + ": " + Message;
  }
};

/// Value-or-diagnostic result of a parse: either the parsed value or a
/// ParseError, never both. Converts to bool (true = success); the value
/// is reached with * / -> / value(), the diagnostic with error().
///
/// This replaces the older out-parameter convention
/// (`parse...(Source, Ctx, ParseError &Err)`): the error can no longer
/// be silently ignored, and call sites need no pre-declared error slot.
template <typename T> class [[nodiscard]] ParseResult {
public:
  /*implicit*/ ParseResult(T Value) : Value(std::move(Value)) {}
  /*implicit*/ ParseResult(ParseError Err) : Err(std::move(Err)) {}

  explicit operator bool() const { return Value.has_value(); }
  bool ok() const { return Value.has_value(); }

  T &operator*() { return *Value; }
  const T &operator*() const { return *Value; }
  T *operator->() { return &*Value; }
  const T *operator->() const { return &*Value; }
  T &value() { return *Value; }
  const T &value() const { return *Value; }

  /// The value on success, \p Default on failure (handy for pointer
  /// results: `parseFormula(...).valueOr(nullptr)`).
  T valueOr(T Default) const { return Value ? *Value : std::move(Default); }

  /// The diagnostic; meaningful only when the parse failed.
  const ParseError &error() const { return Err; }

private:
  std::optional<T> Value;
  ParseError Err;
};

/// Parses a full specification. All terms/formulas are allocated in
/// \p Ctx.
ParseResult<Specification> parseSpecification(const std::string &Source,
                                              Context &Ctx);

/// Parses a single formula against the declarations of \p Spec (used by
/// tests and by the assumption-injection plumbing). The contained
/// pointer is never null on success.
ParseResult<const Formula *> parseFormula(const std::string &Source,
                                          const Specification &Spec,
                                          Context &Ctx);

} // namespace temos

#endif // TEMOS_LOGIC_PARSER_H
