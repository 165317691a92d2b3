//===- game/BoundedSynthesis.h - Bounded LTL synthesis ---------*- C++ -*-===//
///
/// \file
/// Bounded synthesis (Schewe/Finkbeiner; the BoSy approach) as the
/// reactive-synthesis engine, replacing Strix in the paper's pipeline
/// (Sec. 5.1): the negated specification is turned into an NBA, read as
/// a universal co-Buechi automaton, and for increasing counter bounds k
/// the k-counting determinization is solved as a safety game between
/// the environment (picks one of the UCW's allowed predicate
/// valuations, Nba::inputs()) and the system (picks one update per
/// cell). A winning system strategy is extracted as a
/// Mealy machine.
///
/// The engine is *incremental* along two axes (see
/// docs/ARCHITECTURE.md):
///
///  * One memo entry per (alphabet, tableau state budget, NNF node of the
///    negated specification) holds the UCW, so repeated invocations on
///    an unchanged negated specification skip the tableau entirely. A
///    TableauCache also records per-state expansions across builds, but
///    no bundled row, eager or lazy, has measured a hit in it: the
///    states of a grown formula differ from the earlier ones.
///  * The same entry holds one counting-game arena (state interning
///    tables, weighted move lists), kept alive across the whole bound
///    schedule and across calls: the counting transition relation does
///    not depend on k, only the overflow cutoff does, so escalating the
///    bound expands again just the states that had a move past the old
///    cutoff instead of re-deriving the reachable graph. A call that
///    ends Unknown drops the arena.
///
/// The arena's successor relation answers every output letter of one
/// (game state, input letter) in a single pass: the tableau emits each
/// UCW state's edges with the output letters they admit as a bitmask
/// (one word per 64 letters, Nba::outputs()), and the pass ORs those
/// masks into one row per (counter, target) before it scatters them into
/// each letter's successor. A game state is packed: one bitset of UCW
/// states per counter value, interned in one flat table.
///
/// Extraction renumbers machine states by a breadth-first walk of the
/// chosen strategy, which makes the emitted Mealy machine independent of
/// arena internals: incremental and from-scratch runs produce
/// byte-identical machines (enforced by the parity test suite).
///
/// Unrealizability is approximate: if no bound in the schedule
/// admits a strategy, the problem is reported Unrealizable. This mirrors
/// the incompleteness the paper accepts (Sec. 4.5: "most existing SyGuS
/// solvers do not halt on unrealizable inputs").
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_GAME_BOUNDEDSYNTHESIS_H
#define TEMOS_GAME_BOUNDEDSYNTHESIS_H

#include "automata/Tableau.h"
#include "game/Mealy.h"

#include <memory>
#include <optional>

namespace temos {

class SolverPool;

/// Realizability verdict.
enum class Realizability {
  Realizable,
  /// No strategy up to the configured counter bound / state budget.
  Unrealizable,
  /// Resource budget exceeded.
  Unknown,
};

inline const char *realizabilityName(Realizability R) {
  switch (R) {
  case Realizability::Realizable:
    return "realizable";
  case Realizability::Unrealizable:
    return "unrealizable";
  case Realizability::Unknown:
    return "unknown";
  }
  return "unknown";
}

/// Tunables for the bounded synthesis loop.
struct SynthesisOptions {
  /// Counter bounds tried, in order. Realizability is monotone in k, so
  /// trying a mid-size bound first skips the small-k explorations that
  /// liveness specs always fail (and costs nothing extra on safety
  /// specs, whose counters never move).
  std::vector<unsigned> BoundSchedule = {1, 3};
  /// Abort when a game exceeds this many counting states. The check is
  /// applied before interning: the arena never holds more than this
  /// many states.
  size_t StateBudget = 500000;
  /// Reuse NBAs, tableau expansions, and game arenas across bounds and
  /// calls. Off = rebuild everything per bound and per call (the
  /// pre-incremental behavior; kept selectable for the parity suite and
  /// the differential fuzzer).
  bool Incremental = true;
  /// Budget for the tableau construction of the UCW. The pipeline's
  /// refinement CHECK-SAT (Alg. 4) builds its tableaux under it too.
  TableauLimits Tableau;
};

/// Statistics of one synthesis run.
struct SynthesisStats {
  unsigned BoundUsed = 0;
  size_t GameStates = 0;
  TableauStats Tableau;
  /// The UCW was served from the engine's NBA cache.
  bool NbaCacheHit = false;
  /// Tableau per-state expansion cache traffic during this call.
  size_t ExpansionCacheHits = 0;
  size_t ExpansionCacheMisses = 0;
  /// Game states already present in the reused arena when the call
  /// started (0 for a fresh arena).
  size_t ArenaStatesReused = 0;
  /// (game state, input letter, output letter) triples this call
  /// examined: every letter of each expansion, a state expanded again at
  /// a higher bound counted again. A property of the explored game, not
  /// of how the successors are computed.
  size_t LettersExplored = 0;
  /// The most (UCW state, counter) pairs in any game state of the arena
  /// this call explored: what one successor pass reads.
  size_t MaxActive = 0;
  /// Input letters the game offered the environment: the UCW's allowed
  /// letters (Nba::inputs()).
  size_t InputLetters = 0;
  /// Wall-clock split: UCW construction vs. game exploration/solving.
  double NbaSeconds = 0;
  double GameSeconds = 0;
  /// An Unknown verdict was caused by the cooperative deadline (wall
  /// clock), as opposed to the state/transition budgets.
  bool TimedOut = false;
};

/// Result of reactive synthesis.
struct SynthesisResult {
  Realizability Status = Realizability::Unknown;
  std::optional<MealyMachine> Machine;
  SynthesisStats Stats;
};

/// The incremental reactive-synthesis engine. Owns one memo map (per
/// negated specification: its UCW and its live game arena, at most 8
/// entries, all dropped when an insert finds it full) and the tableau
/// expansion cache; one instance serves every reactive invocation of a
/// pipeline run (the Synthesizer keeps one per instance). Cache traffic
/// is reported per call in SynthesisStats.
///
/// Every cache key holds interned nodes, which are unique only within one
/// Context, so an engine must only be used with one Context (checked). Not
/// thread-safe; calls are expected from the pipeline thread. The
/// SolverPool is used *within* a call to explore counting-game
/// successor cells in waves merged in wave order (a null pool means an
/// inline one): results are byte-identical for every pool width.
class SynthesisEngine {
public:
  SynthesisEngine();
  ~SynthesisEngine();
  SynthesisEngine(const SynthesisEngine &) = delete;
  SynthesisEngine &operator=(const SynthesisEngine &) = delete;

  /// Synthesizes a Mealy machine realizing \p Spec over \p AB, or
  /// reports (bounded) unrealizability. With Options.Incremental, work
  /// is served from / recorded into the engine's caches. \p Dl bounds
  /// the UCW construction and is polled at wave boundaries of arena
  /// exploration and per gfp iteration; expiry degrades to Unknown with
  /// Stats.TimedOut set. An interrupted build is never cached, and a
  /// call that ends Unknown drops its arena, so reuse stays
  /// byte-identical.
  SynthesisResult synthesize(const Formula *Spec, Context &Ctx,
                             const Alphabet &AB,
                             const SynthesisOptions &Options = {},
                             SolverPool *Pool = nullptr,
                             const Deadline &Dl = {});

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Synthesizes a Mealy machine realizing \p Spec over \p AB, or reports
/// (bounded) unrealizability. Convenience wrapper constructing a
/// throwaway SynthesisEngine; cross-call reuse requires holding an
/// engine instead.
SynthesisResult synthesizeLtl(const Formula *Spec, Context &Ctx,
                              const Alphabet &AB,
                              const SynthesisOptions &Options = {});

} // namespace temos

#endif // TEMOS_GAME_BOUNDEDSYNTHESIS_H
