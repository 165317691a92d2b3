//===- tools/fuzz/Generator.h - Random case generation ---------*- C++ -*-===//
///
/// \file
/// Seed-driven generation of the fuzzing harness's input cases: theory
/// literal conjunctions (QF_LIA / QF_LRA / QF_UF, with delta-rational
/// strict-bound families targeted explicitly), temporal formulas and
/// whole specifications for the round-trip oracle, SyGuS queries, and
/// small realizable pipeline specifications. All randomness flows from
/// one Rng, so a (seed, iteration) pair reproduces a case exactly.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_TOOLS_FUZZ_GENERATOR_H
#define TEMOS_TOOLS_FUZZ_GENERATOR_H

#include "logic/Parser.h"
#include "support/Rng.h"
#include "sygus/SygusSolver.h"

#include <string>
#include <vector>

namespace temos {
namespace fuzz {

/// A generated theory case: a conjunction of literals allocated in the
/// generator's context.
struct TheoryCase {
  Theory Th = Theory::LIA;
  std::vector<TheoryLiteral> Literals;
  /// True when the case carries bounding-box literals that make the
  /// integer grid exhaustive, so brute force refuting satisfiability is
  /// authoritative (two-sided comparison). Otherwise the grid only
  /// certifies Sat (one-sided).
  bool GridComplete = false;
};

/// A generated SyGuS case: the query plus the concrete bounds of its
/// (input-free) pre-condition box, for independent ground checking.
struct SygusCase {
  SygusQuery Query;
  int64_t Lo = 0;
  int64_t Hi = 0;
  unsigned MaxSteps = 3;
};

/// Random case generator. Allocates all terms/formulas into the given
/// context; keep the context alive as long as the case.
class Generator {
public:
  Generator(Context &Ctx, Rng &R) : Ctx(Ctx), R(R) {}

  /// A random theory conjunction, rotating through the LIA-box, general
  /// LRA, strict-bound LRA and pure-UF families.
  TheoryCase theoryCase();

  /// A random temporal formula over \p Spec's declarations (updates,
  /// comparisons, boolean structure, X/G/F/U/W/R). \p Depth bounds the
  /// operator nesting.
  const Formula *temporalFormula(const Specification &Spec, int Depth);

  /// A random full specification built programmatically (declarations +
  /// assume/guarantee formulas), for the spec round-trip oracle.
  Specification randomSpec();

  /// Concrete source of a small specification from a family the
  /// bounded-synthesis pipeline handles quickly (counter-style), for the
  /// pipeline determinism oracle. About a third carry two more cells,
  /// for 75 output letters: more than one word of the game's masks.
  std::string pipelineSpecSource();

  /// Concrete source of a small counter specification for the CHECK-SAT
  /// oracle. Half of them carry Example 4.6's cool-down guarantee (a
  /// step must be followed by a stay), which makes the SyGuS programs
  /// that step twice in a row unexecutable: their cores are unsat.
  std::string checkSatSpecSource();

  /// A random single-cell SyGuS query with an exhaustive integer
  /// pre-condition box.
  SygusCase sygusCase();

  /// The fixed specification the formula round-trip oracle parses its
  /// formulas against.
  static const char *roundTripSpecSource();

private:
  TheoryCase liaBoxCase();
  TheoryCase lraCase(bool TargetStrictBounds);
  TheoryCase ufCase();

  /// A random linear Int/Real term over \p Vars.
  const Term *linearTerm(const std::vector<const Term *> &Vars, Sort S,
                         bool AllowHalves);

  Context &Ctx;
  Rng &R;
};

} // namespace fuzz
} // namespace temos

#endif // TEMOS_TOOLS_FUZZ_GENERATOR_H
