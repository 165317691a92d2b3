//===- theory/Evaluator.cpp - Ground term evaluation -----------------------===//

#include "theory/Evaluator.h"

#include "logic/Builtin.h"

using namespace temos;

std::optional<Value> Evaluator::evaluate(const Term *T,
                                         const Assignment &Env) const {
  switch (T->kind()) {
  case Term::Kind::Numeral:
    return Value::number(T->value());
  case Term::Kind::Signal: {
    auto It = Env.find(T->name());
    if (It == Env.end())
      return std::nullopt;
    return It->second;
  }
  case Term::Kind::Apply:
    break;
  }

  const std::string &F = T->name();

  // Nullary builtins and constants.
  if (T->arity() == 0) {
    if (F == "True")
      return Value::boolean(true);
    if (F == "False")
      return Value::boolean(false);
    // Opaque constants evaluate to themselves as symbols.
    return Value::symbol(F + "()");
  }

  // Evaluate arguments first.
  std::vector<Value> Args;
  Args.reserve(T->arity());
  for (const Term *Arg : T->args()) {
    auto V = evaluate(Arg, Env);
    if (!V)
      return std::nullopt;
    Args.push_back(*V);
  }

  if (const Builtin *B = findBuiltin(F)) {
    using Op = Builtin::Op;
    if (Args.size() == 2 && B->Code == Op::Eq)
      return Value::boolean(Args[0] == Args[1]);
    if (Args.size() == 2 && B->Code == Op::Ne)
      return Value::boolean(Args[0] != Args[1]);
    // A sort mismatch on a builtin (e.g. "<" on symbols) is an
    // evaluation failure, not a symbolic application.
    if (Args.size() != 2 || !Args[0].isNumber() || !Args[1].isNumber())
      return std::nullopt;
    const Rational &X = Args[0].getNumber();
    const Rational &Y = Args[1].getNumber();
    switch (B->Code) {
    case Op::Add:
      return Value::number(X + Y);
    case Op::Sub:
      return Value::number(X - Y);
    case Op::Mul:
      return Value::number(X * Y);
    case Op::Lt:
      return Value::boolean(X < Y);
    case Op::Le:
      return Value::boolean(X <= Y);
    case Op::Gt:
      return Value::boolean(X > Y);
    case Op::Ge:
      return Value::boolean(X >= Y);
    case Op::Eq:
    case Op::Ne:
      break;
    }
    return std::nullopt;
  }

  // Uninterpreted function: canonical symbolic value over evaluated
  // arguments (term-model semantics -> congruence holds by construction).
  std::string Canonical = "(" + F;
  for (const Value &Arg : Args)
    Canonical.append(" ").append(Arg.str());
  Canonical += ")";
  if (T->sort() == Sort::Bool) {
    // Boolean UF applications have no truth value under the term model;
    // the caller decides (the SMT layer treats them as atoms). For
    // evaluation purposes we expose them as symbols via evaluate() and
    // fail in evaluateBool().
    return Value::symbol(Canonical);
  }
  return Value::symbol(Canonical);
}

std::optional<bool> Evaluator::evaluateBool(const Term *T,
                                            const Assignment &Env) const {
  auto V = evaluate(T, Env);
  if (!V || !V->isBool())
    return std::nullopt;
  return V->getBool();
}
