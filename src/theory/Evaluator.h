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
#include <vector>

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

  /// evaluate() with the environment abstracted: \p Lookup maps a
  /// signal node to its value, or to null when it is unassigned. The
  /// SyGuS screening reads numbered slots through it.
  template <typename LookupFn>
  static std::optional<Value> evaluateWith(const Term *T,
                                           const LookupFn &Lookup);
  template <typename LookupFn>
  static std::optional<bool> evaluateBoolWith(const Term *T,
                                              const LookupFn &Lookup) {
    auto V = evaluateWith(T, Lookup);
    if (!V || !V->isBool())
      return std::nullopt;
    return V->getBool();
  }

private:
  /// A zero-argument application: True(), False(), or an opaque
  /// constant's symbol.
  static Value constant(const Term *T);
  /// \p B applied to two evaluated operands; nullopt on ill-sorted
  /// operands.
  static std::optional<Value> applyBuiltin(const Builtin &B, const Value &X,
                                           const Value &Y);
  /// An uninterpreted application's canonical symbol over its evaluated
  /// arguments (term-model semantics: congruence holds by construction).
  static Value uninterpreted(const Term *T, const std::vector<Value> &Args);
};

template <typename LookupFn>
std::optional<Value> Evaluator::evaluateWith(const Term *T,
                                             const LookupFn &Lookup) {
  switch (T->kind()) {
  case Term::Kind::Numeral:
    return Value::number(T->value());
  case Term::Kind::Signal:
    if (const Value *V = Lookup(T))
      return *V;
    return std::nullopt;
  case Term::Kind::Apply:
    break;
  }
  if (T->arity() == 0)
    return constant(T);
  const Builtin *B = T->builtin();
  if (B && T->arity() == 2) {
    auto X = evaluateWith(T->args()[0], Lookup);
    if (!X)
      return std::nullopt;
    auto Y = evaluateWith(T->args()[1], Lookup);
    if (!Y)
      return std::nullopt;
    return applyBuiltin(*B, *X, *Y);
  }
  std::vector<Value> Args;
  Args.reserve(T->arity());
  for (const Term *Arg : T->args()) {
    auto V = evaluateWith(Arg, Lookup);
    if (!V)
      return std::nullopt;
    Args.push_back(std::move(*V));
  }
  // A builtin applied to other than two operands does not evaluate.
  if (B)
    return std::nullopt;
  return uninterpreted(T, Args);
}

} // namespace temos

#endif // TEMOS_THEORY_EVALUATOR_H
