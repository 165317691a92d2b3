//===- logic/Formula.cpp - TSL-MT formulas --------------------------------===//

#include "logic/Formula.h"

#include <algorithm>

using namespace temos;

namespace {

const char *operatorName(Formula::Kind K) {
  switch (K) {
  case Formula::Kind::And:
    return "&&";
  case Formula::Kind::Or:
    return "||";
  case Formula::Kind::Implies:
    return "->";
  case Formula::Kind::Iff:
    return "<->";
  case Formula::Kind::Until:
    return "U";
  case Formula::Kind::WeakUntil:
    return "W";
  case Formula::Kind::Release:
    return "R";
  default:
    return "?";
  }
}

} // namespace

std::string Formula::str() const {
  switch (K) {
  case Kind::True:
    return "true";
  case Kind::False:
    return "false";
  case Kind::Pred:
    return Atom->str();
  case Kind::Update:
    return "[" + Cell + " <- " + Atom->str() + "]";
  case Kind::Not:
    return "! " + Kids[0]->str();
  case Kind::Next:
    return "X " + Kids[0]->str();
  case Kind::Globally:
    return "G " + Kids[0]->str();
  case Kind::Finally:
    return "F " + Kids[0]->str();
  case Kind::And:
  case Kind::Or:
  case Kind::Implies:
  case Kind::Iff:
  case Kind::Until:
  case Kind::WeakUntil:
  case Kind::Release: {
    std::string Result = "(";
    for (size_t I = 0; I < Kids.size(); ++I) {
      if (I != 0)
        Result += std::string(" ") + operatorName(K) + " ";
      Result += Kids[I]->str();
    }
    return Result + ")";
  }
  }
  return "?";
}

size_t Formula::size() const {
  size_t Total = 1;
  for (const Formula *Kid : Kids)
    Total += Kid->size();
  return Total;
}

bool FormulaFactory::Key::operator==(const Key &RHS) const {
  return K == RHS.K && Atom == RHS.Atom && Cell == RHS.Cell &&
         std::ranges::equal(Kids, RHS.Kids);
}

size_t FormulaFactory::KeyHash::operator()(const Key &K) const {
  size_t H = std::hash<std::string_view>()(K.Cell);
  auto Mix = [&H](size_t V) { H = (H ^ V) * 0x9e3779b97f4a7c15ull; };
  Mix(static_cast<size_t>(K.K));
  Mix(reinterpret_cast<uintptr_t>(K.Atom));
  for (const Formula *Kid : K.Kids)
    Mix(reinterpret_cast<uintptr_t>(Kid));
  return H ^ (H >> 29);
}

const Formula *FormulaFactory::intern(Formula::Kind K, const Term *Atom,
                                      const std::string &Cell,
                                      std::vector<const Formula *> Kids) {
  // Find-or-create must be atomic: two workers interning the same
  // structure concurrently must receive the same node (and id).
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Formulas.find(Key{K, Atom, Cell, Kids});
  if (It != Formulas.end())
    return It->second.get();
  auto Node =
      std::unique_ptr<Formula>(new Formula(K, Atom, Cell, std::move(Kids)));
  Node->Id = static_cast<unsigned>(Formulas.size());
  const Formula *Result = Node.get();
  Formulas.emplace(Key{K, Atom, Result->Cell, Result->Kids}, std::move(Node));
  return Result;
}

const Formula *FormulaFactory::trueF() {
  return intern(Formula::Kind::True, nullptr, "", {});
}

const Formula *FormulaFactory::falseF() {
  return intern(Formula::Kind::False, nullptr, "", {});
}

const Formula *FormulaFactory::pred(const Term *P) {
  assert(P->sort() == Sort::Bool && "predicate atom must be Bool-sorted");
  return intern(Formula::Kind::Pred, P, "", {});
}

const Formula *FormulaFactory::update(const std::string &Cell,
                                      const Term *Value) {
  assert(!Cell.empty() && "update with empty cell name");
  return intern(Formula::Kind::Update, Value, Cell, {});
}

const Formula *FormulaFactory::notF(const Formula *F) {
  if (F->is(Formula::Kind::Not))
    return F->child(0);
  if (F->is(Formula::Kind::True))
    return falseF();
  if (F->is(Formula::Kind::False))
    return trueF();
  return intern(Formula::Kind::Not, nullptr, "", {F});
}

const Formula *FormulaFactory::andF(std::vector<const Formula *> Fs) {
  std::vector<const Formula *> Flat;
  for (const Formula *F : Fs) {
    if (F->is(Formula::Kind::False))
      return falseF();
    if (F->is(Formula::Kind::True))
      continue;
    if (F->is(Formula::Kind::And)) {
      Flat.insert(Flat.end(), F->children().begin(), F->children().end());
      continue;
    }
    Flat.push_back(F);
  }
  // Deduplicate while preserving order (hash-consing makes this cheap).
  std::vector<const Formula *> Unique;
  for (const Formula *F : Flat)
    if (std::find(Unique.begin(), Unique.end(), F) == Unique.end())
      Unique.push_back(F);
  if (Unique.empty())
    return trueF();
  if (Unique.size() == 1)
    return Unique[0];
  return intern(Formula::Kind::And, nullptr, "", std::move(Unique));
}

const Formula *FormulaFactory::orF(std::vector<const Formula *> Fs) {
  std::vector<const Formula *> Flat;
  for (const Formula *F : Fs) {
    if (F->is(Formula::Kind::True))
      return trueF();
    if (F->is(Formula::Kind::False))
      continue;
    if (F->is(Formula::Kind::Or)) {
      Flat.insert(Flat.end(), F->children().begin(), F->children().end());
      continue;
    }
    Flat.push_back(F);
  }
  std::vector<const Formula *> Unique;
  for (const Formula *F : Flat)
    if (std::find(Unique.begin(), Unique.end(), F) == Unique.end())
      Unique.push_back(F);
  if (Unique.empty())
    return falseF();
  if (Unique.size() == 1)
    return Unique[0];
  return intern(Formula::Kind::Or, nullptr, "", std::move(Unique));
}

const Formula *FormulaFactory::implies(const Formula *A, const Formula *B) {
  if (A->is(Formula::Kind::True))
    return B;
  if (A->is(Formula::Kind::False))
    return trueF();
  return intern(Formula::Kind::Implies, nullptr, "", {A, B});
}

const Formula *FormulaFactory::iff(const Formula *A, const Formula *B) {
  return intern(Formula::Kind::Iff, nullptr, "", {A, B});
}

const Formula *FormulaFactory::next(const Formula *F) {
  if (F->is(Formula::Kind::True) || F->is(Formula::Kind::False))
    return F;
  return intern(Formula::Kind::Next, nullptr, "", {F});
}

const Formula *FormulaFactory::nextN(const Formula *F, unsigned N) {
  const Formula *Result = F;
  for (unsigned I = 0; I < N; ++I)
    Result = next(Result);
  return Result;
}

const Formula *FormulaFactory::globally(const Formula *F) {
  if (F->is(Formula::Kind::True) || F->is(Formula::Kind::False))
    return F;
  if (F->is(Formula::Kind::Globally))
    return F;
  return intern(Formula::Kind::Globally, nullptr, "", {F});
}

const Formula *FormulaFactory::finallyF(const Formula *F) {
  if (F->is(Formula::Kind::True) || F->is(Formula::Kind::False))
    return F;
  if (F->is(Formula::Kind::Finally))
    return F;
  return intern(Formula::Kind::Finally, nullptr, "", {F});
}

const Formula *FormulaFactory::until(const Formula *A, const Formula *B) {
  if (A->is(Formula::Kind::True))
    return finallyF(B);
  return intern(Formula::Kind::Until, nullptr, "", {A, B});
}

const Formula *FormulaFactory::weakUntil(const Formula *A, const Formula *B) {
  return intern(Formula::Kind::WeakUntil, nullptr, "", {A, B});
}

const Formula *FormulaFactory::release(const Formula *A, const Formula *B) {
  if (A->is(Formula::Kind::False))
    return globally(B);
  return intern(Formula::Kind::Release, nullptr, "", {A, B});
}

const Formula *FormulaFactory::toNNF(const Formula *F) {
  return nnf(F, /*Negated=*/false);
}

const Formula *FormulaFactory::nnf(const Formula *F, bool Negated) {
  auto &Cache = NNFCache[Negated ? 1 : 0];
  {
    std::lock_guard<std::mutex> Lock(NNFMutex);
    if (auto It = Cache.find(F); It != Cache.end())
      return It->second;
  }

  const Formula *Result = nullptr;
  switch (F->kind()) {
  case Formula::Kind::True:
    Result = Negated ? falseF() : trueF();
    break;
  case Formula::Kind::False:
    Result = Negated ? trueF() : falseF();
    break;
  case Formula::Kind::Pred:
  case Formula::Kind::Update:
    Result = Negated ? notF(F) : F;
    break;
  case Formula::Kind::Not:
    Result = nnf(F->child(0), !Negated);
    break;
  case Formula::Kind::And:
  case Formula::Kind::Or: {
    std::vector<const Formula *> Kids;
    Kids.reserve(F->children().size());
    for (const Formula *Kid : F->children())
      Kids.push_back(nnf(Kid, Negated));
    bool MakeAnd = (F->kind() == Formula::Kind::And) != Negated;
    Result = MakeAnd ? andF(std::move(Kids)) : orF(std::move(Kids));
    break;
  }
  case Formula::Kind::Implies: {
    // a -> b === !a || b.
    const Formula *A = nnf(F->lhs(), !Negated);
    const Formula *B = nnf(F->rhs(), Negated);
    Result = Negated ? andF({nnf(F->lhs(), false), B}) : orF({A, B});
    break;
  }
  case Formula::Kind::Iff: {
    // a <-> b === (a && b) || (!a && !b); negated: (a && !b) || (!a && b).
    const Formula *A = nnf(F->lhs(), false);
    const Formula *NA = nnf(F->lhs(), true);
    const Formula *B = nnf(F->rhs(), false);
    const Formula *NB = nnf(F->rhs(), true);
    if (Negated)
      Result = orF(andF(A, NB), andF(NA, B));
    else
      Result = orF(andF(A, B), andF(NA, NB));
    break;
  }
  case Formula::Kind::Next:
    Result = next(nnf(F->child(0), Negated));
    break;
  case Formula::Kind::Globally:
    Result = Negated ? finallyF(nnf(F->child(0), true))
                     : globally(nnf(F->child(0), false));
    break;
  case Formula::Kind::Finally:
    Result = Negated ? globally(nnf(F->child(0), true))
                     : finallyF(nnf(F->child(0), false));
    break;
  case Formula::Kind::Until: {
    const Formula *A = nnf(F->lhs(), Negated);
    const Formula *B = nnf(F->rhs(), Negated);
    // !(a U b) === !a R !b.
    Result = Negated ? release(A, B) : until(A, B);
    break;
  }
  case Formula::Kind::Release: {
    const Formula *A = nnf(F->lhs(), Negated);
    const Formula *B = nnf(F->rhs(), Negated);
    // !(a R b) === !a U !b.
    Result = Negated ? until(A, B) : release(A, B);
    break;
  }
  case Formula::Kind::WeakUntil: {
    if (!Negated) {
      Result = weakUntil(nnf(F->lhs(), false), nnf(F->rhs(), false));
    } else {
      // !(a W b) === !(a U b || G a) === (!a R !b) && F !a
      //          === !b U (!a && !b).
      const Formula *NA = nnf(F->lhs(), true);
      const Formula *NB = nnf(F->rhs(), true);
      Result = until(NB, andF(NA, NB));
    }
    break;
  }
  }

  assert(Result && "NNF produced no result");
  // Concurrent workers may race to fill the same entry; both computed
  // the same hash-consed node, so emplace's first-wins is benign.
  std::lock_guard<std::mutex> Lock(NNFMutex);
  Cache.emplace(F, Result);
  return Result;
}

