//===- logic/Traversal.h - Formula traversals ------------------*- C++ -*-===//
///
/// \file
/// Traversal helpers over formulas: collecting predicate literals and
/// update terms (the |P| and |F| columns of Table 1 and the inputs to the
/// syntactic decomposition of Alg. 1), and walking subformulas.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_LOGIC_TRAVERSAL_H
#define TEMOS_LOGIC_TRAVERSAL_H

#include "logic/Formula.h"
#include "logic/Specification.h"

#include <functional>
#include <vector>

namespace temos {

/// Calls \p Visit on every node of \p F (pre-order).
void forEachNode(const Formula *F,
                 const std::function<void(const Formula *)> &Visit);

/// All distinct predicate terms occurring in \p F, in first-occurrence
/// order. This is the "predicate literals" set of Sec. 4.1.
std::vector<const Term *> collectPredicateTerms(const Formula *F);

/// All distinct update atoms [c <- t] occurring in \p F, in
/// first-occurrence order (returned as Update-kind Formula nodes).
std::vector<const Formula *> collectUpdateTerms(const Formula *F);

/// Distinct predicate terms across a whole specification.
std::vector<const Term *> collectPredicateTerms(const Specification &Spec);

/// Distinct update atoms across a whole specification.
std::vector<const Formula *> collectUpdateTerms(const Specification &Spec);

} // namespace temos

#endif // TEMOS_LOGIC_TRAVERSAL_H
