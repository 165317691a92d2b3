//===- theory/LinearExpr.cpp - Linear arithmetic expressions ---------------===//

#include "theory/LinearExpr.h"

using namespace temos;

LinearExpr LinearExpr::operator+(const LinearExpr &RHS) const {
  LinearExpr Result(Constant + RHS.Constant);
  Result.Entries.reserve(Entries.size() + RHS.Entries.size());
  // Merge of two id-sorted lists; equal ids add up and vanish at zero.
  auto L = Entries.begin(), R = RHS.Entries.begin();
  while (L != Entries.end() || R != RHS.Entries.end()) {
    if (R == RHS.Entries.end() || (L != Entries.end() && L->Var < R->Var)) {
      Result.Entries.push_back(*L++);
    } else if (L == Entries.end() || R->Var < L->Var) {
      Result.Entries.push_back(*R++);
    } else {
      Rational Sum = L->Coeff + R->Coeff;
      if (!Sum.isZero())
        Result.Entries.push_back({L->Var, Sum});
      ++L;
      ++R;
    }
  }
  return Result;
}

LinearExpr LinearExpr::operator-(const LinearExpr &RHS) const {
  return *this + RHS.scaled(Rational(-1));
}

LinearExpr LinearExpr::scaled(const Rational &Factor) const {
  LinearExpr Result;
  if (Factor.isZero())
    return Result;
  Result.Constant = Constant * Factor;
  Result.Entries.reserve(Entries.size());
  for (const Entry &E : Entries)
    Result.Entries.push_back({E.Var, E.Coeff * Factor});
  return Result;
}

std::optional<LinearExpr> LinearExpr::fromTerm(const Term *T,
                                               const VarOf &Var) {
  if (T->isNumeral())
    return LinearExpr(T->value());
  const Builtin *B = T->builtin();
  if (!B || T->arity() != 2 || B->Sorts != Builtin::Rule::Arithmetic) {
    // A signal, or purification of an uninterpreted application.
    if (!isNumericSort(T->sort()))
      return std::nullopt;
    return variable(Var(T));
  }

  auto L = fromTerm(T->args()[0], Var);
  auto R = fromTerm(T->args()[1], Var);
  if (!L || !R)
    return std::nullopt;
  switch (B->Code) {
  case Builtin::Op::Add:
    return *L + *R;
  case Builtin::Op::Sub:
    return *L - *R;
  default:
    if (L->isConstant())
      return R->scaled(L->constant());
    if (R->isConstant())
      return L->scaled(R->constant());
    return std::nullopt; // Nonlinear.
  }
}

LinearRel temos::negateRel(LinearRel Rel) {
  switch (Rel) {
  case LinearRel::LE:
    return LinearRel::GT;
  case LinearRel::LT:
    return LinearRel::GE;
  case LinearRel::GE:
    return LinearRel::LT;
  case LinearRel::GT:
    return LinearRel::LE;
  case LinearRel::EQ:
    // Negated equality is a disequality and needs a case split; callers
    // handle EQ specially before calling negateRel.
    assert(false && "cannot negate EQ into a single linear relation");
    return LinearRel::EQ;
  }
  return LinearRel::LE;
}

std::optional<LinearAtom>
LinearAtom::fromComparison(const Term *T, bool Negated,
                           const LinearExpr::VarOf &Var) {
  const Builtin *B = T->builtin();
  if (!B || T->arity() != 2)
    return std::nullopt;
  LinearRel Rel;
  switch (B->Code) {
  case Builtin::Op::Lt:
    Rel = LinearRel::LT;
    break;
  case Builtin::Op::Le:
    Rel = LinearRel::LE;
    break;
  case Builtin::Op::Gt:
    Rel = LinearRel::GT;
    break;
  case Builtin::Op::Ge:
    Rel = LinearRel::GE;
    break;
  case Builtin::Op::Eq:
    Rel = LinearRel::EQ;
    break;
  default:
    return std::nullopt;
  }

  if (!isNumericSort(T->args()[0]->sort()) ||
      !isNumericSort(T->args()[1]->sort()))
    return std::nullopt;

  auto A = LinearExpr::fromTerm(T->args()[0], Var);
  auto C = LinearExpr::fromTerm(T->args()[1], Var);
  if (!A || !C)
    return std::nullopt;

  if (Negated) {
    if (Rel == LinearRel::EQ)
      return std::nullopt; // Disequalities need a case split upstream.
    Rel = negateRel(Rel);
  }
  return LinearAtom{*A - *C, Rel};
}
