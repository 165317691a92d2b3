//===- logic/Term.cpp - TSL-MT terms --------------------------------------===//

#include "logic/Term.h"

#include <algorithm>

using namespace temos;

std::string Term::str() const {
  switch (K) {
  case Kind::Signal:
    return Name;
  case Kind::Numeral:
    return Value.str();
  case Kind::Apply: {
    if (Args.empty())
      return Name + "()";
    // Operators render infix so printed terms re-parse ((x + 1), x < y).
    if (Args.size() == 2 && B)
      return std::string("(")
          .append(Args[0]->str())
          .append(" " + Name + " ")
          .append(Args[1]->str())
          .append(")");
    std::string Result = "(" + Name;
    for (const Term *Arg : Args)
      Result.append(" ").append(Arg->str());
    return Result + ")";
  }
  }
  return "?";
}

bool TermFactory::Key::operator==(const Key &RHS) const {
  return K == RHS.K && S == RHS.S && Name == RHS.Name &&
         Value == RHS.Value && std::ranges::equal(Args, RHS.Args);
}

size_t TermFactory::KeyHash::operator()(const Key &K) const {
  size_t H = std::hash<std::string_view>()(K.Name);
  auto Mix = [&H](size_t V) { H = (H ^ V) * 0x9e3779b97f4a7c15ull; };
  Mix(static_cast<size_t>(K.K) << 8 | static_cast<size_t>(K.S));
  Mix(K.Value.hash());
  for (const Term *Arg : K.Args)
    Mix(reinterpret_cast<uintptr_t>(Arg));
  return H ^ (H >> 29);
}

const Term *TermFactory::intern(Term::Kind K, const std::string &Name, Sort S,
                                const std::vector<const Term *> &Args,
                                const Rational &Value) {
  // Find-or-create must be atomic: two workers interning the same
  // structure concurrently must receive the same node.
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Terms.find(Key{K, S, Name, Value, Args});
  if (It != Terms.end())
    return It->second.get();
  auto Node = std::unique_ptr<Term>(new Term(K, Name, S, Args, Value));
  const Term *Result = Node.get();
  Terms.emplace(Key{K, S, Result->Name, Value, Result->Args}, std::move(Node));
  return Result;
}

const Term *TermFactory::signal(const std::string &Name, Sort S) {
  assert(!Name.empty() && "signal with empty name");
  return intern(Term::Kind::Signal, Name, S, {}, Rational());
}

const Term *TermFactory::apply(const std::string &Function, Sort ResultSort,
                               const std::vector<const Term *> &Args) {
  assert(!Function.empty() && "apply with empty function name");
  return intern(Term::Kind::Apply, Function, ResultSort, Args, Rational());
}

const Term *TermFactory::numeral(const Rational &Value, Sort S) {
  assert((S == Sort::Int || S == Sort::Real) && "numeral must be numeric");
  assert((S != Sort::Int || Value.isInteger()) &&
         "integral numeral with fractional value");
  return intern(Term::Kind::Numeral, "", S, {}, Value);
}

const Term *TermFactory::substitute(const Term *T,
                                    std::span<const Term *const> From,
                                    std::span<const Term *const> To) {
  assert(From.size() == To.size() && "substitution arity mismatch");
  switch (T->kind()) {
  case Term::Kind::Signal: {
    auto It = std::find(From.begin(), From.end(), T);
    return It == From.end() ? T : To[It - From.begin()];
  }
  case Term::Kind::Numeral:
    return T;
  case Term::Kind::Apply:
    break;
  }
  bool Changed = false;
  std::vector<const Term *> NewArgs;
  NewArgs.reserve(T->arity());
  for (const Term *Arg : T->args()) {
    const Term *NewArg = substitute(Arg, From, To);
    Changed |= NewArg != Arg;
    NewArgs.push_back(NewArg);
  }
  return Changed ? apply(T->name(), T->sort(), NewArgs) : T;
}

void temos::collectSignals(const Term *T, std::vector<std::string> &Out) {
  if (T->isSignal()) {
    if (std::find(Out.begin(), Out.end(), T->name()) == Out.end())
      Out.push_back(T->name());
    return;
  }
  for (const Term *Arg : T->args())
    collectSignals(Arg, Out);
}
