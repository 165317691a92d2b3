//===- sygus/Program.h - Data transformation programs ----------*- C++ -*-===//
///
/// \file
/// Representations of the programs SyGuS produces for data
/// transformation obligations (Sec. 4.3 of the paper):
///
///  * SequentialProgram -- a fixed-length chain of parallel update
///    choices, one per time step (Sec. 4.3.1). Each step picks, for every
///    cell, one of the update terms available in the specification; cells
///    not mentioned keep their value ([c <- c], TSL self-update).
///  * LoopProgram -- a loop body iterated until the post-condition holds
///    (Sec. 4.3.2), i.e. the recursive function
///    f(s) = IF post THEN s ELSE f(body(s)).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_SYGUS_PROGRAM_H
#define TEMOS_SYGUS_PROGRAM_H

#include "logic/Term.h"
#include "theory/Evaluator.h"
#include "theory/Value.h"

#include <map>
#include <string>
#include <vector>

namespace temos {

/// One synthesis step: for each cell, the chosen update right-hand side.
/// Cells without an entry implicitly self-update.
using StepChoice = std::map<std::string, const Term *>;

/// A fixed-length sequential data transformation program.
struct SequentialProgram {
  std::vector<StepChoice> Steps;

  size_t length() const { return Steps.size(); }
  bool operator==(const SequentialProgram &RHS) const {
    return Steps == RHS.Steps;
  }

  std::string str() const;
};

/// A looping data transformation program: iterate Body until the
/// obligation's post-condition holds.
struct LoopProgram {
  std::vector<StepChoice> Body;

  std::string str() const;
};

/// Composes a whole program symbolically from the identity state over
/// the given cells. The result maps each cell to a term over the
/// initial-state signals describing its final value; a cell a step does
/// not mention keeps its value.
std::map<std::string, const Term *>
composeSymbolic(TermFactory &TF, const std::vector<std::string> &CellNames,
                const std::vector<Sort> &CellSorts,
                const std::vector<StepChoice> &Steps);

/// Applies one parallel update step concretely. Returns false if some
/// right-hand side fails to evaluate.
bool applyStepConcrete(const Evaluator &E, Assignment &State,
                       const StepChoice &Step);

} // namespace temos

#endif // TEMOS_SYGUS_PROGRAM_H
