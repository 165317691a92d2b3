//===- theory/Evaluator.cpp - Ground term evaluation -----------------------===//

#include "theory/Evaluator.h"

using namespace temos;

namespace {

/// Reads a signal's value from \p Env by name.
auto byName(const Assignment &Env) {
  return [&Env](const Term *Signal) -> const Value * {
    auto It = Env.find(Signal->name());
    return It == Env.end() ? nullptr : &It->second;
  };
}

} // namespace

std::optional<Value> Evaluator::evaluate(const Term *T,
                                         const Assignment &Env) const {
  return evaluateWith(T, byName(Env));
}

std::optional<bool> Evaluator::evaluateBool(const Term *T,
                                            const Assignment &Env) const {
  return evaluateBoolWith(T, byName(Env));
}

Value Evaluator::constant(const Term *T) {
  const std::string &F = T->name();
  if (F == "True")
    return Value::boolean(true);
  if (F == "False")
    return Value::boolean(false);
  // Opaque constants evaluate to themselves as symbols.
  return Value::symbol(F + "()");
}

std::optional<Value> Evaluator::applyBuiltin(const Builtin &B, const Value &X,
                                             const Value &Y) {
  using Op = Builtin::Op;
  if (B.Code == Op::Eq)
    return Value::boolean(X == Y);
  if (B.Code == Op::Ne)
    return Value::boolean(X != Y);
  // A sort mismatch on a builtin (e.g. "<" on symbols) is an evaluation
  // failure, not a symbolic application.
  if (!X.isNumber() || !Y.isNumber())
    return std::nullopt;
  const Rational &L = X.getNumber();
  const Rational &R = Y.getNumber();
  switch (B.Code) {
  case Op::Add:
    return Value::number(L + R);
  case Op::Sub:
    return Value::number(L - R);
  case Op::Mul:
    return Value::number(L * R);
  case Op::Lt:
    return Value::boolean(L < R);
  case Op::Le:
    return Value::boolean(L <= R);
  case Op::Gt:
    return Value::boolean(L > R);
  case Op::Ge:
    return Value::boolean(L >= R);
  case Op::Eq:
  case Op::Ne:
    break;
  }
  return std::nullopt;
}

Value Evaluator::uninterpreted(const Term *T, const std::vector<Value> &Args) {
  // Boolean UF applications have no truth value under the term model;
  // the caller decides (the SMT layer treats them as atoms): they
  // evaluate to symbols here and fail in evaluateBool().
  std::string Canonical = "(" + T->name();
  for (const Value &Arg : Args)
    Canonical.append(" ").append(Arg.str());
  return Value::symbol(Canonical + ")");
}
