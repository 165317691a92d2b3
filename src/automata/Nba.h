//===- automata/Nba.h - Nondeterministic Buechi automata -------*- C++ -*-===//
///
/// \file
/// Explicit nondeterministic Buechi automata with transition-based
/// acceptance over the factored TSL alphabet. Produced by the tableau
/// (automata/Tableau.h) from the negated specification; consumed
/// universally (as a universal co-Buechi automaton) by the bounded
/// synthesis game (game/BoundedSynthesis.h), and directly by the LTL
/// satisfiability check the refinement loop needs (Alg. 4).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_AUTOMATA_NBA_H
#define TEMOS_AUTOMATA_NBA_H

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace temos {

/// A compiled guard over letters: input bits that must match plus
/// per-cell update requirements. The tableau adds each literal of a
/// branch as it meets it, so evaluation per letter is O(#requirements).
/// Ordered member-wise (the tableau deduplicates transitions with it).
struct LetterConstraint {
  /// Input bits that are constrained (care mask) and their values.
  uint32_t InputCare = 0;
  uint32_t InputValue = 0;
  /// Per-cell requirements: (cell, option, positive). Positive means the
  /// cell's choice must equal the option; negative means it must differ.
  struct UpdateReq {
    uint16_t Cell = 0;
    uint16_t Option = 0;
    bool Positive = true;
    auto operator<=>(const UpdateReq &) const = default;
  };
  std::vector<UpdateReq> Updates;

  auto operator<=>(const LetterConstraint &) const = default;

  /// True if the guard matches the letter (inputs + decoded choices).
  bool matches(uint32_t InputBits,
               const std::vector<unsigned> &Choices) const {
    if ((InputBits & InputCare) != InputValue)
      return false;
    for (const UpdateReq &R : Updates) {
      bool Equal = Choices[R.Cell] == R.Option;
      if (Equal != R.Positive)
        return false;
    }
    return true;
  }
};

/// An explicit NBA with transition-based Buechi acceptance, read over
/// the input letters it allows (see inputs()).
class Nba {
public:
  struct Transition {
    LetterConstraint Guard;
    uint32_t Target = 0;
    /// Transition-based Buechi mark (set after degeneralization).
    bool Accepting = false;
  };

  uint32_t addState() {
    States.emplace_back();
    return static_cast<uint32_t>(States.size() - 1);
  }
  void addTransition(uint32_t From, Transition T) {
    States[From].push_back(std::move(T));
  }

  size_t stateCount() const { return States.size(); }
  const std::vector<Transition> &transitions(uint32_t State) const {
    return States[State];
  }

  uint32_t initial() const { return Initial; }
  void setInitial(uint32_t State) { Initial = State; }

  /// The input letters the environment can produce, ascending: those
  /// that satisfy every input-only invariant the tableau peeled off its
  /// formula (all letters when there was none). Words over other
  /// letters violate the formula, so the automaton, the game and the
  /// extracted machine only ever read these.
  const std::vector<uint32_t> &inputs() const { return Inputs; }
  void setInputs(std::vector<uint32_t> Letters) { Inputs = std::move(Letters); }

  /// Nonemptiness: does the automaton accept some word? True iff a cycle
  /// through an accepting transition is reachable (every guard the
  /// tableau emits matches some letter over the allowed inputs).
  bool isNonEmpty() const;

  /// For each state: can a run from it still cross an accepting
  /// transition? Runs through non-live states never reject, so the
  /// counting game drops them from its tracking sets.
  std::vector<bool> liveStates() const;

private:
  std::vector<std::vector<Transition>> States;
  std::vector<uint32_t> Inputs;
  uint32_t Initial = 0;
};

} // namespace temos

#endif // TEMOS_AUTOMATA_NBA_H
