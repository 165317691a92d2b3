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

const Term *TermFactory::intern(Term::Kind K, const std::string &Name, Sort S,
                                const std::vector<const Term *> &Args,
                                const Rational &Value) {
  // Build a structural key. Child pointers are unique per structure, so
  // embedding their addresses keys the whole subtree.
  std::string Key;
  Key += static_cast<char>('0' + static_cast<int>(K));
  Key += static_cast<char>('0' + static_cast<int>(S));
  Key += Name;
  Key += '#';
  Key += Value.str();
  for (const Term *Arg : Args) {
    Key += '@';
    Key += std::to_string(reinterpret_cast<uintptr_t>(Arg));
  }
  // Find-or-create must be atomic: two workers interning the same
  // structure concurrently must receive the same node.
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Terms.find(Key);
  if (It != Terms.end())
    return It->second.get();
  auto Node = std::unique_ptr<Term>(new Term(K, Name, S, Args, Value));
  const Term *Result = Node.get();
  Terms.emplace(std::move(Key), std::move(Node));
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

const Term *TermFactory::substituteAll(
    const Term *T, const std::unordered_map<std::string, const Term *> &Map) {
  switch (T->kind()) {
  case Term::Kind::Signal: {
    auto It = Map.find(T->name());
    return It != Map.end() ? It->second : T;
  }
  case Term::Kind::Numeral:
    return T;
  case Term::Kind::Apply: {
    bool Changed = false;
    std::vector<const Term *> NewArgs;
    NewArgs.reserve(T->arity());
    for (const Term *Arg : T->args()) {
      const Term *NewArg = substituteAll(Arg, Map);
      Changed |= NewArg != Arg;
      NewArgs.push_back(NewArg);
    }
    if (!Changed)
      return T;
    return apply(T->name(), T->sort(), NewArgs);
  }
  }
  return T;
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
