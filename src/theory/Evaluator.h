//===- theory/Evaluator.h - Ground term evaluation -------------*- C++ -*-===//
///
/// \file
/// Evaluates ground TSL-MT terms under a concrete assignment of signal
/// values. This is the semantic backbone shared by:
///  * the SyGuS solver (diversifying sampled pre-condition models and
///    rejecting candidates whose run misses the post-condition on them),
///  * the code-generation Interpreter (executing synthesized systems),
///  * tests (differential checking against the SMT solver).
///
/// Builtin interpretations: numerals, +, -, * (linear), comparisons,
/// True()/False(). Applications of uninterpreted functions evaluate to
/// symbols canonically derived from the function name and evaluated
/// arguments, which realizes a term-model semantics: two UF applications
/// are equal iff their arguments evaluate equal (congruence).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_THEORY_EVALUATOR_H
#define TEMOS_THEORY_EVALUATOR_H

#include "logic/Term.h"
#include "theory/Value.h"

#include <optional>

namespace temos {

/// Evaluates ground terms under an assignment.
class Evaluator {
public:
  /// Evaluates \p T under \p Env. Returns nullopt when a signal is
  /// unassigned, a builtin receives ill-sorted operands, or the result
  /// would require division by zero.
  std::optional<Value> evaluate(const Term *T, const Assignment &Env) const;

  /// Evaluates a Bool-sorted term to a boolean; nullopt on failure.
  std::optional<bool> evaluateBool(const Term *T, const Assignment &Env) const;
};

} // namespace temos

#endif // TEMOS_THEORY_EVALUATOR_H
