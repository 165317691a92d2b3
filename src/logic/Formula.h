//===- logic/Formula.h - TSL-MT formulas -----------------------*- C++ -*-===//
///
/// \file
/// TSL-MT formulas (Sec. 3.1/3.3 of the paper):
///
///   phi := tau_P | [s <- tau_F] | !phi | phi && phi | X phi | phi U phi
///
/// plus the standard derived operators ||, ->, <->, R (release),
/// G (always), F (eventually) and W (weak until), which are kept as
/// first-class nodes because the decomposition algorithm (Alg. 1) and the
/// assumption encodings (Alg. 2/3) pattern-match on them.
///
/// Formulas are immutable and hash-consed by FormulaFactory; pointer
/// equality is structural equality.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_LOGIC_FORMULA_H
#define TEMOS_LOGIC_FORMULA_H

#include "logic/Term.h"

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace temos {

/// An immutable TSL-MT formula node. Create via FormulaFactory only.
class Formula {
public:
  enum class Kind {
    True,
    False,
    /// A predicate term (a Bool-sorted Term) used as an atom.
    Pred,
    /// An update term [cell <- term].
    Update,
    Not,
    And, // n-ary, >= 2 children
    Or,  // n-ary, >= 2 children
    Implies,
    Iff,
    Next,
    Globally,
    Finally,
    Until,
    WeakUntil,
    Release,
  };

  Kind kind() const { return K; }

  /// Stable creation index within the owning factory; used to order
  /// formula sets deterministically (pointer order varies between runs).
  unsigned id() const { return Id; }

  bool is(Kind Which) const { return K == Which; }
  bool isAtom() const {
    return K == Kind::Pred || K == Kind::Update || K == Kind::True ||
           K == Kind::False;
  }
  bool isTemporal() const {
    return K == Kind::Next || K == Kind::Globally || K == Kind::Finally ||
           K == Kind::Until || K == Kind::WeakUntil || K == Kind::Release;
  }

  /// The predicate term; only valid for Pred nodes.
  const Term *pred() const {
    assert(K == Kind::Pred && "pred() on non-predicate");
    return Atom;
  }

  /// The updated cell name; only valid for Update nodes.
  const std::string &cell() const {
    assert(K == Kind::Update && "cell() on non-update");
    return Cell;
  }
  /// The update's right-hand side term; only valid for Update nodes.
  const Term *updateValue() const {
    assert(K == Kind::Update && "updateValue() on non-update");
    return Atom;
  }

  const std::vector<const Formula *> &children() const { return Kids; }
  const Formula *child(size_t I) const {
    assert(I < Kids.size() && "child index out of range");
    return Kids[I];
  }
  /// Left operand of a binary node / sole operand of a unary node.
  const Formula *lhs() const { return child(0); }
  /// Right operand of a binary node.
  const Formula *rhs() const { return child(1); }

  /// Renders in the benchmark concrete syntax.
  std::string str() const;

  /// Number of AST nodes (the |phi| column of Table 1).
  size_t size() const;

private:
  friend class FormulaFactory;
  Formula(Kind K, const Term *Atom, std::string Cell,
          std::vector<const Formula *> Kids)
      : K(K), Atom(Atom), Cell(std::move(Cell)), Kids(std::move(Kids)) {}

  Kind K;
  unsigned Id = 0;
  const Term *Atom = nullptr;
  std::string Cell;
  std::vector<const Formula *> Kids;
};

/// Hash-consing factory for formulas.
///
/// Thread safety: interning and the NNF memo are serialized by internal
/// mutexes, so concurrent solver-service workers may build formulas in
/// one shared factory. Note that Formula::id() reflects interning
/// order: under concurrent construction ids are valid and unique but
/// their assignment order depends on scheduling, so ids order formula
/// sets consistently *within* a run, not across runs.
class FormulaFactory {
public:
  FormulaFactory() = default;
  FormulaFactory(const FormulaFactory &) = delete;
  FormulaFactory &operator=(const FormulaFactory &) = delete;

  const Formula *trueF();
  const Formula *falseF();
  /// Predicate atom; \p P must have sort Bool.
  const Formula *pred(const Term *P);
  /// Update atom [cell <- value].
  const Formula *update(const std::string &Cell, const Term *Value);
  /// Negation. notF(notF(f)) collapses to f.
  const Formula *notF(const Formula *F);
  /// N-ary conjunction; flattens nested Ands, drops True, returns False
  /// if any child is False, returns True for the empty conjunction.
  const Formula *andF(std::vector<const Formula *> Fs);
  const Formula *andF(const Formula *A, const Formula *B) {
    return andF(std::vector<const Formula *>{A, B});
  }
  /// N-ary disjunction (dual simplifications of andF).
  const Formula *orF(std::vector<const Formula *> Fs);
  const Formula *orF(const Formula *A, const Formula *B) {
    return orF(std::vector<const Formula *>{A, B});
  }
  const Formula *implies(const Formula *A, const Formula *B);
  const Formula *iff(const Formula *A, const Formula *B);
  const Formula *next(const Formula *F);
  /// Applies N next operators.
  const Formula *nextN(const Formula *F, unsigned N);
  const Formula *globally(const Formula *F);
  const Formula *finallyF(const Formula *F);
  const Formula *until(const Formula *A, const Formula *B);
  const Formula *weakUntil(const Formula *A, const Formula *B);
  const Formula *release(const Formula *A, const Formula *B);

  /// Negation normal form: negations pushed to atoms; Implies/Iff
  /// eliminated; G/F/W/U/R/X retained as first-class operators (the
  /// decomposition algorithm and the tableau expansion laws want them).
  const Formula *toNNF(const Formula *F);

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Formulas.size();
  }

private:
  /// What interning compares, so it builds no string: a lookup views the
  /// caller's arguments, a stored key its own node's fields.
  struct Key {
    Formula::Kind K;
    const Term *Atom;
    std::string_view Cell;
    std::span<const Formula *const> Kids;
    bool operator==(const Key &RHS) const;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const;
  };

  const Formula *intern(Formula::Kind K, const Term *Atom,
                        const std::string &Cell,
                        std::vector<const Formula *> Kids);
  const Formula *nnf(const Formula *F, bool Negated);

  mutable std::mutex Mutex;
  /// Guards NNFCache separately: nnf() recurses through intern(), so
  /// the memo cannot share the interning mutex without deadlock.
  mutable std::mutex NNFMutex;
  std::unordered_map<Key, std::unique_ptr<Formula>, KeyHash> Formulas;
  std::unordered_map<const Formula *, const Formula *> NNFCache[2];
};

} // namespace temos

#endif // TEMOS_LOGIC_FORMULA_H
