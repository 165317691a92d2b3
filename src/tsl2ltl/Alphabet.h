//===- tsl2ltl/Alphabet.h - TSL underapproximation alphabet ----*- C++ -*-===//
///
/// \file
/// The TSL-to-LTL underapproximation of [Finkbeiner et al., CAV 2019],
/// which temos relies on for reactive synthesis (Sec. 4.4): every
/// distinct predicate term becomes an *input* proposition (chosen by the
/// environment each step) and every update term [c <- tau] becomes an
/// *output* proposition (chosen by the system), with the side constraint
/// that exactly one update fires per cell per step.
///
/// Instead of encoding the exactly-one constraints as LTL formulas, the
/// alphabet is kept factored: an input letter is a bitset over predicate
/// terms, and an output letter is one update choice per cell. This makes
/// mutual exclusion structural and keeps the game alphabet small
/// (2^|P| x prod_c |updates(c)| instead of 2^(|P|+|U|)).
///
/// Example 4.3's "(y_to_y || x_to_y) && !(y_to_y && x_to_y)" encoding is
/// exactly what this class realizes.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_TSL2LTL_ALPHABET_H
#define TEMOS_TSL2LTL_ALPHABET_H

#include "logic/Specification.h"
#include "logic/Traversal.h"

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace temos {

/// One step's combined environment/system choice.
struct Letter {
  /// Bit i = truth of predicate term i.
  uint32_t InputBits = 0;
  /// Encoded per-cell update choice (mixed-radix index).
  uint32_t OutputIndex = 0;

  bool operator==(const Letter &RHS) const {
    return InputBits == RHS.InputBits && OutputIndex == RHS.OutputIndex;
  }
};

/// The factored input/output alphabet of the underapproximated
/// specification.
class Alphabet {
public:
  /// Input letters are the valuations of the predicate terms, one bit
  /// each, enumerated explicitly: more terms than this are refused.
  static constexpr size_t MaxPredicates = 20;

  /// A cell (or output signal) with its available update options.
  struct CellUpdates {
    std::string Cell;
    Sort S = Sort::Int;
    /// Update atoms [cell <- term]; index = choice id.
    std::vector<const Formula *> Options;

    auto operator<=>(const CellUpdates &) const = default;
  };

  /// Builds the alphabet for \p Spec extended with \p Extra formulas
  /// (generated assumptions may mention update chains not in the
  /// original spec). Each cell additionally gets the implicit
  /// self-update [c <- c] unless already present. Cells with no updates
  /// anywhere still get the self-update (they are inert).
  static Alphabet build(const Specification &Spec, Context &Ctx,
                        const std::vector<const Formula *> &Extra = {});

  const std::vector<const Term *> &predicates() const { return Predicates; }
  const std::vector<CellUpdates> &cells() const { return Cells; }

  size_t inputLetterCount() const { return size_t(1) << Predicates.size(); }
  size_t outputLetterCount() const { return OutputCount; }

  /// Index of predicate term \p P; -1 if unknown.
  int predicateIndex(const Term *P) const;
  /// (cell index, option index) of update atom \p U; (-1,-1) if unknown.
  std::pair<int, int> updateIndex(const Formula *U) const;

  /// Decodes an output letter into one option index per cell.
  std::vector<unsigned> decodeOutput(uint32_t OutputIndex) const;
  /// Inverse of decodeOutput.
  uint32_t encodeOutput(const std::vector<unsigned> &Choices) const;
  /// The output letter in which every cell fires its self-update
  /// [c <- c], i.e. keeps its value.
  uint32_t idleOutput() const;

  /// Truth of an atom under \p L. The atom must be a Pred or Update node
  /// registered in this alphabet.
  bool holds(const Formula *Atom, const Letter &L) const;

  /// Compares predicates, then cells with their update options, by node.
  /// Equal alphabets give input bits and output letters one meaning, so
  /// compiled guards and whole automata are interchangeable between them.
  /// Used by the tableau and NBA caches, within one Context.
  auto operator<=>(const Alphabet &) const = default;

private:
  std::vector<const Term *> Predicates;
  std::vector<CellUpdates> Cells;
  size_t OutputCount = 1;
};

} // namespace temos

#endif // TEMOS_TSL2LTL_ALPHABET_H
