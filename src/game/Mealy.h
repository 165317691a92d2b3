//===- game/Mealy.h - Mealy machines ---------------------------*- C++ -*-===//
///
/// \file
/// Explicit Mealy machines: the strategies extracted from the bounded
/// synthesis game. An input letter is a predicate-valuation bitset and
/// an output letter is one update choice per cell (see
/// tsl2ltl/Alphabet.h). This is our stand-in for the paper's Control
/// Flow Model (CFM) representation [18]; the codegen module renders it
/// as JavaScript/C++ or executes it directly.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_GAME_MEALY_H
#define TEMOS_GAME_MEALY_H

#include "tsl2ltl/Alphabet.h"

#include <cstdint>
#include <vector>

namespace temos {

/// A deterministic Mealy machine over the factored alphabet. It answers
/// the input letters the environment can produce (the game's allowed
/// letters); on any other letter it keeps its state and fires every
/// cell's self-update, which is what the emitted code does when no
/// `case` matches.
class MealyMachine {
public:
  /// Reaction to one input letter.
  struct Edge {
    uint32_t Output = 0;
    uint32_t NextState = 0;
  };

  MealyMachine() = default;
  /// A machine over \p NumInputs input letters that answers \p Answered
  /// (ascending); until setEdge says otherwise, every letter keeps the
  /// state and outputs \p Idle (Alphabet::idleOutput()).
  MealyMachine(size_t NumStates, size_t NumInputs,
               std::vector<uint32_t> Answered, uint32_t Idle)
      : Table(NumStates), Answered(std::move(Answered)) {
    for (uint32_t S = 0; S < NumStates; ++S)
      Table[S].assign(NumInputs, Edge{Idle, S});
  }

  size_t stateCount() const { return Table.size(); }
  size_t inputCount() const { return Table.empty() ? 0 : Table[0].size(); }
  /// The input letters the machine answers, ascending.
  const std::vector<uint32_t> &inputs() const { return Answered; }
  uint32_t initialState() const { return Initial; }
  void setInitialState(uint32_t S) { Initial = S; }

  const Edge &edge(uint32_t State, uint32_t InputBits) const {
    return Table[State][InputBits];
  }
  void setEdge(uint32_t State, uint32_t InputBits, Edge E) {
    Table[State][InputBits] = E;
  }

private:
  std::vector<std::vector<Edge>> Table;
  std::vector<uint32_t> Answered;
  uint32_t Initial = 0;
};

} // namespace temos

#endif // TEMOS_GAME_MEALY_H
