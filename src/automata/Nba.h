//===- automata/Nba.h - Nondeterministic Buechi automata -------*- C++ -*-===//
///
/// \file
/// Explicit nondeterministic Buechi automata with transition-based
/// acceptance over the factored TSL alphabet, in the one form both
/// consumers read: per state, one edge per (target, accepting flag,
/// input cube) with a bitmask of the output letters it admits. Produced
/// by the tableau (automata/Tableau.h) from the negated specification;
/// consumed universally (as a universal co-Buechi automaton) by the
/// bounded synthesis game (game/BoundedSynthesis.h), and directly by the
/// LTL satisfiability check the refinement loop needs (Alg. 4).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_AUTOMATA_NBA_H
#define TEMOS_AUTOMATA_NBA_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace temos {

/// An explicit NBA with transition-based Buechi acceptance, read over
/// the input letters it allows (see inputs()). Each state keeps one edge
/// per (target, accepting flag, input cube); an edge carries the output
/// letters it admits as a mask of outputWords() words, bit O % 64 of
/// word O / 64 standing for output letter O.
class Nba {
public:
  struct Edge {
    uint32_t Target = 0;
    /// Transition-based Buechi mark (set by degeneralization).
    bool Accepting = false;
    /// Input bits that are constrained (care mask) and their values.
    uint32_t InputCare = 0;
    uint32_t InputValue = 0;
    bool operator==(const Edge &) const = default;
  };

  /// An automaton whose masks have \p OutputWords words (one per 64
  /// output letters).
  explicit Nba(size_t OutputWords = 1) : Words(OutputWords) {}

  uint32_t addState() {
    States.emplace_back();
    return static_cast<uint32_t>(States.size() - 1);
  }
  /// ORs \p Outputs (outputWords() words) into \p From's edge with the
  /// same target, accepting flag and input cube as \p E, or appends \p E
  /// with that mask. True if the edge is new.
  bool addEdge(uint32_t From, const Edge &E, const uint64_t *Outputs);

  size_t stateCount() const { return States.size(); }
  size_t outputWords() const { return Words; }
  const std::vector<Edge> &edges(uint32_t State) const {
    return States[State].Edges;
  }
  /// The output-letter mask of edges(State)[I]: outputWords() words.
  const uint64_t *outputs(uint32_t State, size_t I) const {
    return &States[State].Masks[I * Words];
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
  /// through an accepting edge is reachable (every edge the tableau
  /// emits has an output letter and an allowed input letter).
  bool isNonEmpty() const;

  /// For each state: can a run from it still cross an accepting edge?
  std::vector<bool> liveStates() const;

  /// Removes every edge into a state liveStates() marks non-live and
  /// returns the number of edges that remain. Every state on an
  /// accepting lasso is live, so isNonEmpty() does not change; runs
  /// through non-live states never reject, so read universally (the
  /// game's UCW) the automaton rejects the same runs. One pass: a state
  /// whose accepting edges all led into non-live states loses them but
  /// keeps its other edges, and edges into it stay.
  size_t dropDeadEdges();

private:
  struct StateEdges {
    std::vector<Edge> Edges;
    /// Edge I's output letters are Masks[I * Words, (I + 1) * Words).
    std::vector<uint64_t> Masks;
  };
  std::vector<StateEdges> States;
  size_t Words;
  std::vector<uint32_t> Inputs;
  uint32_t Initial = 0;
};

} // namespace temos

#endif // TEMOS_AUTOMATA_NBA_H
