//===- core/Decomposition.h - Syntactic decomposition (Alg. 1) -*- C++ -*-===//
///
/// \file
/// The syntactic decomposition of TSL-MT specifications (Sec. 4.1,
/// Algorithm 1): extract the predicate literals, then derive the data
/// transformation obligations -- Hoare-style (pre-condition, program?,
/// post-condition) synthesis tasks where the temporal operator over each
/// post-condition literal determines the obligation's shape:
///
///  * a chain of n X operators  ->  exact n-step obligation,
///  * an U/W right-hand side or an F  ->  reachability obligation,
///  * an U left-hand side  ->  reachability obligation (the paper notes
///    G(p -> F p) collapses to F p since F F p = F p).
///
/// Post-conditions are the traversal's literals plus every predicate
/// literal as a reachability target; pre-conditions are single literals
/// of both polarities. The paper takes the powerset of both; the full
/// powerset of pre-conditions is exponential.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_CORE_DECOMPOSITION_H
#define TEMOS_CORE_DECOMPOSITION_H

#include "logic/Specification.h"
#include "theory/SmtSolver.h"

#include <vector>

namespace temos {

/// A data transformation obligation (Sec. 4.1).
struct Obligation {
  enum class Kind {
    /// Post-condition must hold after exactly Steps time steps.
    Exact,
    /// Post-condition must eventually hold (F / U-derived).
    Eventually,
  };

  std::vector<TheoryLiteral> Pre;
  std::vector<TheoryLiteral> Post;
  Kind K = Kind::Eventually;
  unsigned Steps = 1;

  std::string str() const;
};

/// Decomposition tunables.
struct DecompositionOptions {
  /// Hard cap on emitted obligations.
  size_t MaxObligations = 256;
};

/// Result of decomposing a specification.
struct Decomposition {
  /// All distinct predicate terms (the paper's predicate literals and
  /// Table 1's |P|).
  std::vector<const Term *> PredicateLiterals;
  /// All distinct update atoms (Table 1's |F|).
  std::vector<const Formula *> UpdateTerms;
  /// The data transformation obligations.
  std::vector<Obligation> Obligations;
};

/// Runs syntactic decomposition on \p Spec.
Decomposition decompose(const Specification &Spec, Context &Ctx,
                        const DecompositionOptions &Options = {});

} // namespace temos

#endif // TEMOS_CORE_DECOMPOSITION_H
