//===- automata/Tableau.h - LTL tableau construction -----------*- C++ -*-===//
///
/// \file
/// On-the-fly tableau construction from (underapproximated) TSL formulas
/// to nondeterministic Buechi automata, standing in for the
/// tsltools+Strix pipeline of the paper's implementation (Sec. 5.1).
///
/// The construction follows the classic expansion-law scheme (Gerth et
/// al. / Couvreur style): a state is the set of formulas that must hold
/// now, a bitset over the root formula's NNF closure (indexed once per
/// construction, in formula-id order). Expansion applies one table of
/// laws (one alternative per disjunct: formulas now, an obligation for
/// the next step, whether it defers an eventuality), depth first over
/// an explicit stack of frames, and compiles each literal as it meets it: a
/// predicate fixes a bit of the branch's input cube, an update ANDs the
/// output letters choosing (or not choosing) its option into the
/// branch's letter mask. The branch dies at its first contradiction (an
/// input bit clash or an empty mask). A branch is thus (input cube,
/// output mask, next-state obligations, deferred eventualities). Each
/// Until/Finally subformula contributes one generalized acceptance set
/// containing the transitions that do not defer it; at most
/// MaxAcceptanceSets of them. A state's branches merge into one edge per
/// (target, defer mask, input cube), ORing their masks; the generalized
/// automaton is then degeneralized with the usual level counter into a
/// single transition-based Buechi condition, merging again per (target,
/// accepting, input cube), and edges into states that can no longer
/// cross an accepting edge are dropped (Nba::dropDeadEdges).
///
/// Input-only invariants G psi at the top level are peeled off before
/// expansion and kept as a filter on the environment's letters instead
/// of as tableau obligations; an invariant contributes no state and no
/// branch.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_AUTOMATA_TABLEAU_H
#define TEMOS_AUTOMATA_TABLEAU_H

#include "automata/Nba.h"
#include "logic/Specification.h"
#include "support/Deadline.h"
#include "tsl2ltl/Alphabet.h"

#include <memory>
#include <optional>

namespace temos {

/// Statistics of one construction.
struct TableauStats {
  size_t GeneralizedStates = 0;
  size_t AcceptanceSets = 0;
  size_t NbaStates = 0;
  /// Edges of the returned automaton (after dead edges are dropped).
  size_t NbaTransitions = 0;
  /// Construction aborted because a resource budget was exceeded; the
  /// returned automaton is unusable and callers must report Unknown.
  bool BudgetExceeded = false;
  /// The budget that tripped was the cooperative deadline (wall clock),
  /// not a state/transition count. Only meaningful with BudgetExceeded.
  bool TimedOut = false;
};

/// Acceptance sets one construction can track (one bit each in a
/// transition's defer mask). A formula with more Until/Finally
/// subformulas is refused: BudgetExceeded, with AcceptanceSets set.
constexpr size_t MaxAcceptanceSets = 64;

/// Resource budget for the construction (exceeded -> BudgetExceeded).
struct TableauLimits {
  size_t MaxGeneralizedStates = 20000;
};

class TableauCache;

/// Builds the NBA of \p F (converted to NNF internally) over \p AB.
/// Every predicate and update atom of \p F must be registered in the
/// alphabet. Top-level conjuncts G psi with psi a Boolean combination
/// of predicate atoms (consistency cores, input-only `always assume`s)
/// are not expanded: they become the automaton's allowed input letters
/// (Nba::inputs()), and branches with no allowed letter are dropped.
/// With a non-null \p Cache, per-state expansions are served
/// from / recorded into the cache (see TableauCache). \p Dl is polled
/// once per expanded state and per degeneralization wave; expiry aborts
/// the build (BudgetExceeded and TimedOut).
Nba buildNba(const Formula *F, Context &Ctx, const Alphabet &AB,
             TableauStats *Stats = nullptr,
             const TableauLimits &Limits = {},
             TableauCache *Cache = nullptr, const Deadline &Dl = {});

/// Cross-build memo for the tableau's per-state expansion work.
///
/// The cached unit is a state's branch list: each branch with its input
/// cube, its output-letter mask, its successor obligation set and its
/// defer mask. A construction indexes the closure of its root (the
/// peeled NNF formula) and represents state sets, successor sets and
/// defer masks over that index, so entries are keyed by (alphabet, root
/// formula node, state set): cubes and masks compile against
/// concrete bit and letter indices, and a branch replays only into a
/// build of the same closure. A state that recurs in a later build of
/// the same root and alphabet replays its expansion instead of
/// re-deriving it.
/// (Measured on the bundled rows, eager and lazy, no state recurs: a
/// grown formula's tableau states differ from the earlier formula's,
/// and the cache serves 0 hits on every row.)
///
/// Keys hold interned nodes, unique only within one Context: never share
/// an instance across Contexts. Not thread-safe; the synthesis engine
/// uses it from the construction thread only.
class TableauCache {
public:
  TableauCache();
  ~TableauCache();
  TableauCache(const TableauCache &) = delete;
  TableauCache &operator=(const TableauCache &) = delete;

  /// States served from the cache across all builds.
  size_t hits() const;
  /// States expanded from scratch (and recorded).
  size_t misses() const;
  /// Cached expansion entries.
  size_t size() const;
  void clear();

private:
  friend Nba buildNba(const Formula *, Context &, const Alphabet &,
                      TableauStats *, const TableauLimits &, TableauCache *,
                      const Deadline &);
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// LTL satisfiability of \p F under the underapproximation: does some
/// trace (sequence of letters) satisfy it? Used by the refinement loop's
/// CHECK-SAT (Alg. 4) and by tests. nullopt when the construction was
/// cut off (\p Limits or \p Dl): the question stays undecided.
std::optional<bool> isSatisfiable(const Formula *F, Context &Ctx,
                                  const Alphabet &AB,
                                  const Deadline &Dl = {},
                                  const TableauLimits &Limits = {});

} // namespace temos

#endif // TEMOS_AUTOMATA_TABLEAU_H
