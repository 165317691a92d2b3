//===- logic/Builtin.h - The theory's builtin operators --------*- C++ -*-===//
///
/// \file
/// The one table of builtin function and predicate symbols: arithmetic
/// `+ - *` and the comparisons `< <= > >= = !=`. The parser, the term
/// printer, the evaluator, the SMT solver, the code emitters and the
/// fuzz oracles all ask this table whether a symbol is interpreted; every
/// other application is an uninterpreted function. Every builtin is
/// binary.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_LOGIC_BUILTIN_H
#define TEMOS_LOGIC_BUILTIN_H

#include "logic/Sort.h"

#include <optional>
#include <string>

namespace temos {

struct Builtin {
  enum class Op { Add, Sub, Mul, Lt, Le, Gt, Ge, Eq, Ne };
  /// The operand and result sort rule.
  enum class Rule {
    /// Int/Real operands; the result is Real if either operand is.
    Arithmetic,
    /// Int/Real operands; the result is Bool.
    Order,
    /// Two numeric operands or two operands of one sort; the result is
    /// Bool.
    Equality,
  };

  Op Code;
  /// The canonical symbol: the Term name and the printed infix form.
  const char *Symbol;
  /// Prefix word spellings (`lte x y`); unused slots are null.
  const char *Words[2];
  Rule Sorts;

  bool isComparison() const { return Sorts != Rule::Arithmetic; }

  /// The sort of this builtin applied to operands of sorts \p L and
  /// \p R, or nullopt when they break its rule.
  std::optional<Sort> resultSort(Sort L, Sort R) const;
};

/// The builtin whose canonical symbol is \p Symbol, or null.
const Builtin *findBuiltin(const std::string &Symbol);

/// The builtin spelled \p Word in prefix form (`add`, `leq`), or null.
const Builtin *findBuiltinWord(const std::string &Word);

} // namespace temos

#endif // TEMOS_LOGIC_BUILTIN_H
