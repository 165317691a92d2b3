//===- codegen/Interpreter.h - Execute synthesized controllers -*- C++ -*-===//
///
/// \file
/// Executes a synthesized Mealy machine directly on concrete values:
/// each step evaluates the specification's predicate terms on the
/// current inputs+cells (via the theory evaluator), feeds the resulting
/// valuation to the machine, and applies the chosen update terms
/// simultaneously. This replaces the paper's generated-JS runtime for
/// the in-repo case studies (music synthesizer, CFS scheduler): the
/// same controller the JS emitter prints is run natively.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_CODEGEN_INTERPRETER_H
#define TEMOS_CODEGEN_INTERPRETER_H

#include "game/Mealy.h"
#include "logic/Specification.h"
#include "theory/Evaluator.h"

#include <optional>

namespace temos {

/// Runs a synthesized controller on concrete values.
class Controller {
public:
  Controller(const MealyMachine &M, const Alphabet &AB,
             const Specification &Spec);

  /// Current cell (and output) values.
  const Assignment &cells() const { return CellValues; }

  /// Value of one cell/output; asserts it exists.
  const Value &cell(const std::string &Name) const;

  /// Machine state (for tests/traces).
  uint32_t state() const { return State; }

  /// Outcome of one controller step.
  struct StepOutcome {
    uint32_t InputBits = 0;
    uint32_t OutputLetter = 0;
    /// The update atoms that fired this step, one per cell.
    std::vector<const Formula *> FiredUpdates;
  };

  /// Executes one step with the given input-signal values. On a letter
  /// the machine does not answer (MealyMachine::inputs()) the state is
  /// kept and every cell fires its self-update, as in the emitted code.
  /// Returns nullopt if some predicate or update term cannot be
  /// evaluated concretely (e.g. uninterpreted functions without an
  /// interpretation).
  std::optional<StepOutcome> step(const Assignment &Inputs);

  /// Resets state and cells to their initial values.
  void reset();

private:
  const MealyMachine &M;
  const Alphabet &AB;
  const Specification &Spec;
  Evaluator Eval;
  Assignment CellValues;
  uint32_t State = 0;
};

} // namespace temos

#endif // TEMOS_CODEGEN_INTERPRETER_H
