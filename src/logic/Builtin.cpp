//===- logic/Builtin.cpp - The theory's builtin operators -----------------===//

#include "logic/Builtin.h"

using namespace temos;

namespace {

using Op = Builtin::Op;
using Rule = Builtin::Rule;

// docs/LANGUAGE.md lists these spellings.
const Builtin Table[] = {
    {Op::Add, "+", {"add", nullptr}, Rule::Arithmetic},
    {Op::Sub, "-", {"sub", nullptr}, Rule::Arithmetic},
    {Op::Mul, "*", {"mul", nullptr}, Rule::Arithmetic},
    {Op::Lt, "<", {"lt", nullptr}, Rule::Order},
    {Op::Le, "<=", {"lte", "leq"}, Rule::Order},
    {Op::Gt, ">", {"gt", nullptr}, Rule::Order},
    {Op::Ge, ">=", {"gte", "geq"}, Rule::Order},
    {Op::Eq, "=", {"eq", nullptr}, Rule::Equality},
    {Op::Ne, "!=", {"neq", nullptr}, Rule::Equality},
};

} // namespace

std::optional<Sort> Builtin::resultSort(Sort L, Sort R) const {
  bool Numeric = isNumericSort(L) && isNumericSort(R);
  switch (Sorts) {
  case Rule::Arithmetic:
    if (!Numeric)
      return std::nullopt;
    return L == Sort::Real || R == Sort::Real ? Sort::Real : Sort::Int;
  case Rule::Order:
    if (!Numeric)
      return std::nullopt;
    return Sort::Bool;
  case Rule::Equality:
    if (!compatibleSorts(L, R))
      return std::nullopt;
    return Sort::Bool;
  }
  return std::nullopt;
}

const Builtin *temos::findBuiltin(const std::string &Symbol) {
  for (const Builtin &B : Table)
    if (Symbol == B.Symbol)
      return &B;
  return nullptr;
}

const Builtin *temos::findBuiltinWord(const std::string &Word) {
  for (const Builtin &B : Table)
    for (const char *W : B.Words)
      if (W && Word == W)
        return &B;
  return nullptr;
}
