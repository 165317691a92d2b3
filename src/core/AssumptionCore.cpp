//===- core/AssumptionCore.cpp - Fig. 4 oracle -----------------------------===//

#include "core/AssumptionCore.h"

#include "support/Timer.h"

using namespace temos;

OracleResult
temos::computeOracle(const Specification &Spec,
                     const std::vector<const Formula *> &Assumptions,
                     Context &Ctx, const SynthesisOptions &Options) {
  OracleResult Result;
  Synthesizer Synth(Ctx);

  auto Realizable = [&](const std::vector<const Formula *> &Set) {
    const Formula *Phi = Synth.formulaWithAssumptions(Spec, Set);
    std::vector<const Formula *> ForAlphabet = Set;
    ForAlphabet.push_back(Phi);
    Alphabet AB = Alphabet::build(Spec, Ctx, ForAlphabet);
    ++Result.RealizabilityChecks;
    return synthesizeLtl(Phi, Ctx, AB, Options).Status ==
           Realizability::Realizable;
  };

  Timer MinimizeTimer;
  if (!Realizable(Assumptions)) {
    // The full set is already unrealizable: no core exists.
    Result.Status = Realizability::Unrealizable;
    Result.MinimizationSeconds = MinimizeTimer.seconds();
    return Result;
  }

  // Greedy delete-one minimization.
  std::vector<const Formula *> Core = Assumptions;
  for (size_t I = 0; I < Core.size();) {
    std::vector<const Formula *> Without = Core;
    Without.erase(Without.begin() + I);
    if (Realizable(Without))
      Core = std::move(Without); // Not needed: drop permanently.
    else
      ++I;
  }
  Result.MinimizationSeconds = MinimizeTimer.seconds();
  Result.Core = Core;
  Result.Status = Realizability::Realizable;

  // The oracle's reported cost: one synthesis run on the reduced
  // formula.
  Timer OracleTimer;
  const Formula *Phi = Synth.formulaWithAssumptions(Spec, Core);
  std::vector<const Formula *> ForAlphabet = Core;
  ForAlphabet.push_back(Phi);
  Alphabet AB = Alphabet::build(Spec, Ctx, ForAlphabet);
  synthesizeLtl(Phi, Ctx, AB, Options);
  Result.OracleSynthesisSeconds = OracleTimer.seconds();
  return Result;
}
