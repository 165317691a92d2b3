//===- logic/Term.h - TSL-MT function and predicate terms ------*- C++ -*-===//
///
/// \file
/// Function terms tau_F and predicate terms tau_P of TSL-MT (Sec. 3.1 and
/// 3.3 of the paper):
///
///   tau_F := s | f(tau_F, ..., tau_F)
///   tau_P := p(tau_F, ..., tau_F)
///
/// A predicate term is simply a term of sort Bool. Terms are immutable and
/// hash-consed by TermFactory, so pointer equality is structural equality.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_LOGIC_TERM_H
#define TEMOS_LOGIC_TERM_H

#include "logic/Builtin.h"
#include "logic/Sort.h"
#include "support/Rational.h"

#include <cassert>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace temos {

/// An immutable TSL-MT term. Create via TermFactory only.
class Term {
public:
  enum class Kind {
    /// A signal (input, cell or output), i.e. a first-order variable.
    Signal,
    /// A function application f(t1, ..., tn); n may be zero (a constant).
    Apply,
    /// A numeric literal.
    Numeral,
  };

  Kind kind() const { return K; }
  bool isSignal() const { return K == Kind::Signal; }
  bool isApply() const { return K == Kind::Apply; }
  bool isNumeral() const { return K == Kind::Numeral; }

  /// Signal name or applied function symbol. Empty for numerals.
  const std::string &name() const { return Name; }

  /// The builtin operator this application applies, or null for a
  /// signal, a numeral or an uninterpreted function. Resolved once, when
  /// the term is interned.
  const Builtin *builtin() const { return B; }

  /// The numeric value; only valid for numerals.
  const Rational &value() const {
    assert(isNumeral() && "value() on non-numeral");
    return Value;
  }

  Sort sort() const { return S; }

  const std::vector<const Term *> &args() const { return Args; }
  size_t arity() const { return Args.size(); }

  /// Number of AST nodes.
  size_t size() const {
    size_t Total = 1;
    for (const Term *Arg : Args)
      Total += Arg->size();
    return Total;
  }

  /// Renders the term in the benchmark concrete syntax, e.g.
  /// "add vruntime1 weight1" or "c10()" or "3".
  std::string str() const;

private:
  friend class TermFactory;
  Term(Kind K, std::string Name, Sort S, std::vector<const Term *> Args,
       Rational Value)
      : K(K), Name(std::move(Name)), S(S), Args(std::move(Args)),
        Value(Value),
        B(K == Kind::Apply ? findBuiltin(this->Name) : nullptr) {}

  Kind K;
  std::string Name;
  Sort S;
  std::vector<const Term *> Args;
  Rational Value;
  const Builtin *B;
};

/// Hash-consing factory for terms. Terms returned by the factory live as
/// long as the factory and are unique per structure, so `==` on pointers
/// is structural equality.
///
/// Thread safety: interning is serialized by an internal mutex, so
/// concurrent solver-service workers may allocate into one shared
/// factory. Returned Term pointers are immutable and safe to read
/// without synchronization.
class TermFactory {
public:
  TermFactory() = default;
  TermFactory(const TermFactory &) = delete;
  TermFactory &operator=(const TermFactory &) = delete;

  /// A signal (first-order variable) of the given sort.
  const Term *signal(const std::string &Name, Sort S);

  /// A function application. For zero-argument constants pass no args.
  const Term *apply(const std::string &Function, Sort ResultSort,
                    const std::vector<const Term *> &Args);

  /// A numeric literal of sort Int (if integral) or the given sort.
  const Term *numeral(const Rational &Value, Sort S);
  const Term *numeral(int64_t Value) { return numeral(Rational(Value), Sort::Int); }

  /// Simultaneous substitution of signal nodes: every occurrence of
  /// \p From[i] in \p T is replaced by \p To[i] in one pass (needed for
  /// parallel updates such as swaps, where sequential substitution would
  /// capture). A term with nothing replaced is returned as is.
  const Term *substitute(const Term *T, std::span<const Term *const> From,
                         std::span<const Term *const> To);

  /// Number of distinct terms created so far.
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Terms.size();
  }

private:
  /// What interning compares, so it builds no string: a lookup views the
  /// caller's arguments, a stored key its own node's fields.
  struct Key {
    Term::Kind K;
    Sort S;
    std::string_view Name;
    Rational Value;
    std::span<const Term *const> Args;
    bool operator==(const Key &RHS) const;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const;
  };

  const Term *intern(Term::Kind K, const std::string &Name, Sort S,
                     const std::vector<const Term *> &Args,
                     const Rational &Value);

  mutable std::mutex Mutex;
  std::unordered_map<Key, std::unique_ptr<Term>, KeyHash> Terms;
};

/// Collects the names of all signals occurring in \p T into \p Out
/// (deduplicated, in first-occurrence order).
void collectSignals(const Term *T, std::vector<std::string> &Out);

} // namespace temos

#endif // TEMOS_LOGIC_TERM_H
