//===- game/BoundedSynthesis.cpp - Bounded LTL synthesis -------------------===//
//
// Incremental counting-game engine. The key observation: the counting
// successor relation does not depend on the bound k -- only the overflow
// cutoff does. Every explored move therefore records its *weight* (the
// largest counter value it produces); a move is legal at bound B iff
// weight <= B. Escalating the bound re-examines the moves that
// overflowed at the old cutoff instead of re-deriving the reachable
// graph, and solving restricts the fixpoint to moves of weight <= B.
//
// Parity with the from-scratch engine is structural, not accidental:
//  * Reachable sets are monotone in k (a bound-k move is a bound-k'
//    move for k' >= k and produces the same successor), so the
//    cumulative arena restricted to weight <= B is exactly the bound-B
//    game, and the bound-B subgraph is closed under its own moves.
//  * The greatest fixpoint over the full arena therefore assigns every
//    bound-B-reachable state the same winning value as the bound-B game
//    would, and certificate pinning only ever pins truly winning states
//    (winning transfers upward in k).
//  * Strategy extraction renumbers states breadth-first from the
//    initial state picking the least winning output per input, which is
//    invariant under arena state numbering -- incremental and
//    from-scratch runs emit byte-identical Mealy machines.
//
//===----------------------------------------------------------------------===//

#include "game/BoundedSynthesis.h"

#include "support/SolverPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <span>
#include <unordered_map>

using namespace temos;

namespace {

/// A state of the k-counting game: counters for the *active* UCW states
/// only, sorted by state id (sparse -- UCWs run to thousands of states
/// while only a handful are active at a time).
using CountEntry = std::pair<uint32_t, uint8_t>;
using CountVector = std::vector<CountEntry>;

std::string countKey(std::span<const CountEntry> Counts) {
  std::string Key;
  Key.reserve(Counts.size() * 5);
  for (const auto &[State, Count] : Counts) {
    Key.append(reinterpret_cast<const char *>(&State), 4);
    Key.push_back(static_cast<char>(Count));
  }
  return Key;
}

/// Letter-indexed UCW successor cache. Entries are per UCW state and
/// filled at most once; because each fill writes only its own
/// preallocated slot, distinct states can be filled from pool workers
/// concurrently without synchronization.
struct SuccessorCache {
  struct Entry {
    bool Filled = false;
    /// (offset, length) into Arena, indexed by In * |Out| + Out.
    std::vector<std::pair<uint32_t, uint32_t>> PerLetter;
    /// (target, accepting) successor pairs.
    std::vector<std::pair<uint32_t, uint8_t>> Arena;
  };

  SuccessorCache(const Nba &Ucw, const Alphabet &AB)
      : Ucw(Ucw), AB(AB), Live(Ucw.liveStates()) {
    OutputChoices.reserve(AB.outputLetterCount());
    for (uint32_t O = 0; O < AB.outputLetterCount(); ++O)
      OutputChoices.push_back(AB.decodeOutput(O));
    Entries.resize(Ucw.stateCount());
  }

  bool filled(uint32_t Q) const { return Entries[Q].Filled; }

  /// Computes the per-letter successor table of UCW state \p Q.
  /// Idempotent; touches only Entries[Q].
  void fill(uint32_t Q) {
    Entry &E = Entries[Q];
    if (E.Filled)
      return;
    const size_t NumOutputs = AB.outputLetterCount();
    E.PerLetter.assign(AB.inputLetterCount() * NumOutputs, {0, 0});
    for (uint32_t In = 0; In < AB.inputLetterCount(); ++In) {
      for (uint32_t Out = 0; Out < NumOutputs; ++Out) {
        uint32_t Offset = static_cast<uint32_t>(E.Arena.size());
        for (const Nba::Transition &T : Ucw.transitions(Q)) {
          // Runs through non-live states never reject: drop them.
          if (!Live[T.Target])
            continue;
          if (!T.Guard.matches(In, OutputChoices[Out]))
            continue;
          bool Found = false;
          for (size_t I = Offset; I < E.Arena.size(); ++I)
            if (E.Arena[I].first == T.Target) {
              E.Arena[I].second |= T.Accepting ? 1 : 0;
              Found = true;
              break;
            }
          if (!Found)
            E.Arena.emplace_back(T.Target, T.Accepting ? 1 : 0);
        }
        E.PerLetter[In * NumOutputs + Out] = {
            Offset, static_cast<uint32_t>(E.Arena.size()) - Offset};
      }
    }
    E.Filled = true;
  }

  const Nba &Ucw;
  const Alphabet &AB;
  std::vector<bool> Live;
  std::vector<std::vector<unsigned>> OutputChoices;
  std::vector<Entry> Entries;
};

/// Per-thread scratch for successor computation (dense counter array
/// plus a touched list for O(active) reset). The invariant between
/// calls is "every entry is -1".
struct SuccScratch {
  std::vector<int16_t> Counts;
  std::vector<uint32_t> Touched;
};

SuccScratch &succScratch() {
  thread_local SuccScratch S;
  return S;
}

/// The persistent counting-game arena for one (UCW, alphabet, budget).
/// Interned states, weighted move lists, and the still-overflowing move
/// list all survive bound escalation and repeated solve calls.
class GameArena {
public:
  GameArena(std::shared_ptr<const Nba> UcwPtr, const Alphabet &AB,
            size_t StateBudget)
      : UcwPtr(std::move(UcwPtr)), Ucw(*this->UcwPtr), AB(AB),
        StateBudget(StateBudget), Succ(Ucw, AB) {
    CountVector InitialCounts = {{Ucw.initial(), 0}};
    (void)internState(InitialCounts);
  }

  GameArena(const GameArena &) = delete;
  GameArena &operator=(const GameArena &) = delete;

  /// Extends exploration so every move of weight <= \p B is present.
  /// Returns false when the state budget is exhausted or \p Dl expired
  /// (verdict: Unknown; timedOut() distinguishes). Successor cells of a
  /// wave of frontier states are computed across \p Pool and merged in
  /// wave order; the arena is identical for every pool width (an inline
  /// pool expands one state per wave). Deadline polls happen only at
  /// wave boundaries, where the arena is exactly a sequential-execution
  /// prefix: an interrupted extension can be resumed (or the arena
  /// reused) without breaking determinism.
  bool extendTo(unsigned B, SolverPool &Pool, const Deadline &Dl);

  /// Solves the bound-\p B safety game over the explored arena,
  /// seeding the fixpoint with winning certificates of bounds <= B and
  /// recording the result as the bound-B certificate. Requires a
  /// successful extendTo(B). Returns null when \p Dl expires
  /// mid-fixpoint; a partial fixpoint is an over-approximation of the
  /// winning region, so it is neither returned nor recorded as a
  /// certificate.
  const std::vector<char> *solve(unsigned B, const Deadline &Dl);

  /// Whether the last failed extendTo()/solve() was stopped by the
  /// deadline rather than the state budget.
  bool timedOut() const { return TimedOut; }

  /// Extracts the winning strategy at bound \p B. Requires
  /// initialWinning(solve(B)).
  MealyMachine extract(unsigned B, const std::vector<char> &Winning) const;

  bool initialWinning(const std::vector<char> &Winning) const {
    return !Winning.empty() && Winning[0];
  }

  size_t stateCount() const { return States.size(); }
  size_t stateBudget() const { return StateBudget; }
  bool exhausted() const { return Exhausted; }

  /// True if serving \p Schedule would need a bound this exhausted
  /// arena can neither solve from its usable prefix nor extend to
  /// (extension already failed at a higher bound, but a *smaller*
  /// unexplored bound might still fit the budget from scratch).
  bool needsRebuildFor(const std::vector<unsigned> &Schedule) const {
    if (!Exhausted)
      return false;
    for (unsigned B : Schedule)
      if (static_cast<int64_t>(B) > ExploredBound &&
          static_cast<int64_t>(B) < ExhaustedBound)
        return true;
    return false;
  }

private:
  struct Move {
    uint32_t Out;
    uint32_t Target;
    uint32_t Weight;
  };
  struct OverflowMove {
    uint32_t S;
    uint32_t In;
    uint32_t Out;
  };

  /// Interns \p Counts, enqueueing new states for expansion (the range
  /// is copied into States only for a new state). Returns nullopt when
  /// the state is new and the budget is already full (the arena never
  /// holds more than StateBudget states).
  std::optional<uint32_t> internState(std::span<const CountEntry> Counts) {
    std::string Key = countKey(Counts);
    auto It = StateIds.find(Key);
    if (It != StateIds.end())
      return It->second;
    if (States.size() >= StateBudget)
      return std::nullopt;
    uint32_t Id = static_cast<uint32_t>(States.size());
    StateIds.emplace(std::move(Key), Id);
    States.emplace_back(Counts.begin(), Counts.end());
    Moves.emplace_back();
    Pending.push_back(Id);
    return Id;
  }

  void ensureSucc(const CountVector &Counts) {
    for (const auto &[Q, Count] : Counts) {
      (void)Count;
      if (!Succ.filled(Q))
        Succ.fill(Q);
    }
  }

  /// Successor counting state of (Counts, In, Out) with overflow cutoff
  /// \p Cutoff. Returns false (appending nothing) if some counter would
  /// exceed the cutoff; otherwise appends the successor's entries
  /// (sorted by UCW state) to \p Next and sets \p Weight (the largest
  /// counter produced -- the bound-independent legality threshold of
  /// this move). Requires successor-cache entries for every state in
  /// \p Counts; uses per-thread scratch only, so concurrent calls for
  /// different game states are safe.
  bool successor(const CountVector &Counts, uint32_t In, uint32_t Out,
                 unsigned Cutoff, CountVector &Next, uint32_t &Weight) const {
    SuccScratch &SS = succScratch();
    if (SS.Counts.size() < Ucw.stateCount())
      SS.Counts.resize(Ucw.stateCount(), -1);
    SS.Touched.clear();

    const size_t NumOutputs = AB.outputLetterCount();
    bool Overflowed = false;
    uint32_t MaxCount = 0;
    for (const auto &[Q, Count] : Counts) {
      const SuccessorCache::Entry &E = Succ.Entries[Q];
      auto [Offset, Length] = E.PerLetter[In * NumOutputs + Out];
      for (uint32_t I = Offset; I < Offset + Length; ++I) {
        auto [Target, Accepting] = E.Arena[I];
        int NewCount = Count + Accepting;
        if (NewCount > static_cast<int>(Cutoff)) {
          Overflowed = true;
          break;
        }
        if (SS.Counts[Target] < 0)
          SS.Touched.push_back(Target);
        if (SS.Counts[Target] < NewCount)
          SS.Counts[Target] = static_cast<int16_t>(NewCount);
        if (static_cast<uint32_t>(NewCount) > MaxCount)
          MaxCount = static_cast<uint32_t>(NewCount);
      }
      if (Overflowed)
        break;
    }

    if (!Overflowed) {
      std::sort(SS.Touched.begin(), SS.Touched.end());
      for (uint32_t T : SS.Touched)
        Next.emplace_back(T, static_cast<uint8_t>(SS.Counts[T]));
      Weight = MaxCount;
    }
    for (uint32_t T : SS.Touched)
      SS.Counts[T] = -1;
    return !Overflowed;
  }

  void insertMoveSorted(uint32_t S, uint32_t In, Move M) {
    std::vector<Move> &List = Moves[S][In];
    auto Pos = std::lower_bound(
        List.begin(), List.end(), M,
        [](const Move &A, const Move &B) { return A.Out < B.Out; });
    List.insert(Pos, M);
  }

  void markExhausted(unsigned B) {
    Exhausted = true;
    ExhaustedBound = B;
  }

  bool drainPending(unsigned B, SolverPool &Pool, const Deadline &Dl);

  std::shared_ptr<const Nba> UcwPtr;
  const Nba &Ucw;
  Alphabet AB; // Own copy: callers' alphabets are per-round temporaries.
  size_t StateBudget;
  SuccessorCache Succ;

  std::vector<CountVector> States;
  std::unordered_map<std::string, uint32_t> StateIds;
  /// Moves[state][input], sorted by output letter; only moves whose
  /// weight fit the explored bound are present.
  std::vector<std::vector<std::vector<Move>>> Moves;
  /// Moves that overflowed every cutoff tried so far, re-examined when
  /// the bound escalates.
  std::vector<OverflowMove> Overflow;
  /// Interned-but-unexpanded frontier (FIFO).
  std::deque<uint32_t> Pending;
  /// Highest bound fully explored; -1 = nothing expanded yet.
  int64_t ExploredBound = -1;
  bool Exhausted = false;
  int64_t ExhaustedBound = -1;

  /// Winning-region certificates: (bound, winning flags over the first
  /// |cert| arena states at solve time). Winning transfers upward in
  /// the bound, so any certificate of bound <= B pins states when
  /// solving bound B.
  std::vector<std::pair<unsigned, std::vector<char>>> Certificates;
  std::vector<char> CurrentWinning;
  /// Last failure cause: deadline (true) vs. state budget (false).
  bool TimedOut = false;
};

bool GameArena::extendTo(unsigned B, SolverPool &Pool, const Deadline &Dl) {
  TimedOut = false;
  if (Exhausted) {
    // The usable prefix (bounds <= ExploredBound) remains exact; any
    // further extension already failed the budget.
    return static_cast<int64_t>(B) <= ExploredBound;
  }
  if (static_cast<int64_t>(B) <= ExploredBound)
    return true;
  if (Dl.expired()) {
    // Poll only before the overflow re-examination mutates anything:
    // aborting mid-loop would leave duplicate moves on resume.
    TimedOut = true;
    return false;
  }

  // Re-examine previously overflowing moves at the new cutoff. Entries
  // whose source states were expanded earlier have their successor
  // cache rows filled already.
  std::vector<OverflowMove> Still;
  Still.reserve(Overflow.size());
  CountVector Next;
  for (const OverflowMove &OM : Overflow) {
    uint32_t Weight = 0;
    Next.clear();
    ensureSucc(States[OM.S]);
    if (!successor(States[OM.S], OM.In, OM.Out, B, Next, Weight)) {
      Still.push_back(OM);
      continue;
    }
    std::optional<uint32_t> Target = internState(Next);
    if (!Target) {
      markExhausted(B);
      return false;
    }
    insertMoveSorted(OM.S, OM.In, {OM.Out, *Target, Weight});
  }
  Overflow = std::move(Still);

  if (!drainPending(B, Pool, Dl))
    return false;
  ExploredBound = B;
  return true;
}

bool GameArena::drainPending(unsigned B, SolverPool &Pool,
                             const Deadline &Dl) {
  const uint32_t NumInputs = static_cast<uint32_t>(AB.inputLetterCount());
  const uint32_t NumOutputs = static_cast<uint32_t>(AB.outputLetterCount());
  // Wave size: how many frontier states are expanded per round. 1 on an
  // inline pool, which makes every wave boundary a state boundary.
  const size_t WaveCap = Pool.workerCount() > 0 ? 256 : 1;

  /// One (input, output) successor of a wave state; a legal move's
  /// counts are Slot.Counts[Offset, Offset + Length).
  struct Item {
    uint32_t In;
    uint32_t Out;
    uint32_t Weight;
    uint32_t Offset;
    uint32_t Length;
    bool Legal;
  };
  /// Per wave position, reused across waves: written by one pool task,
  /// read by the merge.
  struct Slot {
    std::vector<Item> Items;
    CountVector Counts;
  };
  std::vector<Slot> Slots;
  std::vector<uint32_t> Wave;
  std::vector<uint32_t> NeedFill;

  while (!Pending.empty()) {
    if (Dl.expired()) {
      // Wave boundary: every popped wave is fully merged and Pending
      // holds the untouched frontier, i.e. the arena is exactly some
      // sequential-execution prefix. Safe to stop (and to resume).
      TimedOut = true;
      return false;
    }
    const size_t WaveLen = std::min(Pending.size(), WaveCap);
    Wave.assign(Pending.begin(), Pending.begin() + WaveLen);
    Pending.erase(Pending.begin(), Pending.begin() + WaveLen);
    if (Slots.size() < WaveLen)
      Slots.resize(WaveLen);

    // Phase 1: fill the successor-cache rows this wave needs. Each row
    // is an independent slot, so the fills fan out across the pool.
    NeedFill.clear();
    for (uint32_t S : Wave)
      for (const auto &[Q, Count] : States[S]) {
        (void)Count;
        if (!Succ.filled(Q))
          NeedFill.push_back(Q);
      }
    std::sort(NeedFill.begin(), NeedFill.end());
    NeedFill.erase(std::unique(NeedFill.begin(), NeedFill.end()),
                   NeedFill.end());
    Pool.forEach(NeedFill.size(), [&](size_t I) { Succ.fill(NeedFill[I]); });

    // Phase 2: compute every (input, output) successor of every wave
    // state. Reads are confined to the (now filled) successor cache and
    // the immutable States prefix; writes go to the state's own slot.
    Pool.forEach(WaveLen, [&](size_t W) {
      const CountVector &Counts = States[Wave[W]];
      Slot &Sl = Slots[W];
      Sl.Items.clear();
      Sl.Counts.clear();
      for (uint32_t In = 0; In < NumInputs; ++In)
        for (uint32_t Out = 0; Out < NumOutputs; ++Out) {
          Item It{In, Out, 0, static_cast<uint32_t>(Sl.Counts.size()), 0,
                  false};
          It.Legal = successor(Counts, In, Out, B, Sl.Counts, It.Weight);
          It.Length = static_cast<uint32_t>(Sl.Counts.size()) - It.Offset;
          Sl.Items.push_back(It);
        }
    });

    // Phase 3: merge sequentially in wave order. Interning order is
    // exactly the state-by-state order, so state ids -- and everything
    // downstream -- are identical for every pool width.
    for (size_t W = 0; W < WaveLen; ++W) {
      uint32_t S = Wave[W];
      const Slot &Sl = Slots[W];
      Moves[S].assign(NumInputs, {});
      for (const Item &It : Sl.Items) {
        if (!It.Legal) {
          Overflow.push_back({S, It.In, It.Out});
          continue;
        }
        std::optional<uint32_t> Target =
            internState({Sl.Counts.data() + It.Offset, It.Length});
        if (!Target) {
          markExhausted(B);
          return false;
        }
        Moves[S][It.In].push_back({It.Out, *Target, It.Weight});
      }
    }
  }
  return true;
}

const std::vector<char> *GameArena::solve(unsigned B, const Deadline &Dl) {
  // Greatest fixpoint: a state is winning while for every input some
  // legal (weight <= B) output leads to a winning state. States covered
  // by a certificate of a smaller-or-equal bound are winning a priori
  // and pinned out of the iteration.
  TimedOut = false;
  CurrentWinning.assign(States.size(), 1);
  std::vector<char> Pinned(States.size(), 0);
  for (const auto &[CertBound, Cert] : Certificates) {
    if (CertBound > B)
      continue;
    for (size_t I = 0; I < Cert.size() && I < Pinned.size(); ++I)
      if (Cert[I])
        Pinned[I] = 1;
  }

  bool Changed = true;
  while (Changed) {
    if (Dl.expired()) {
      // A partially-converged gfp over-approximates the winning region:
      // unsound to report or to pin as a certificate. Drop it.
      TimedOut = true;
      return nullptr;
    }
    Changed = false;
    for (uint32_t S = 0; S < States.size(); ++S) {
      if (!CurrentWinning[S] || Pinned[S])
        continue;
      bool Safe = true;
      for (const std::vector<Move> &PerInput : Moves[S]) {
        bool SomeOutputWins = false;
        for (const Move &M : PerInput) {
          if (M.Weight <= B && CurrentWinning[M.Target]) {
            SomeOutputWins = true;
            break;
          }
        }
        if (!SomeOutputWins) {
          Safe = false;
          break;
        }
      }
      if (!Safe) {
        CurrentWinning[S] = 0;
        Changed = true;
      }
    }
  }

  for (auto &[CertBound, Cert] : Certificates)
    if (CertBound == B) {
      Cert = CurrentWinning;
      return &CurrentWinning;
    }
  Certificates.emplace_back(B, CurrentWinning);
  return &CurrentWinning;
}

MealyMachine GameArena::extract(unsigned B,
                                const std::vector<char> &Winning) const {
  const size_t NumInputs = AB.inputLetterCount();

  // Collect the winning states reachable under the least-output
  // strategy and renumber them densely (breadth-first from the initial
  // state: the numbering -- and therefore the machine -- does not
  // depend on arena state ids).
  std::unordered_map<uint32_t, uint32_t> Renumber;
  std::vector<uint32_t> Order;
  std::deque<uint32_t> Queue;
  Renumber.emplace(0, 0);
  Order.push_back(0);
  Queue.push_back(0);

  // Chosen move per (game state, input).
  std::vector<std::vector<uint32_t>> ChosenOutput;
  std::vector<std::vector<uint32_t>> ChosenTarget;

  while (!Queue.empty()) {
    uint32_t S = Queue.front();
    Queue.pop_front();
    for (uint32_t In = 0; In < NumInputs; ++In) {
      uint32_t PickedOutput = 0;
      uint32_t PickedTarget = 0;
      bool Found = false;
      for (const Move &M : Moves[S][In]) {
        if (M.Weight <= B && Winning[M.Target]) {
          PickedOutput = M.Out;
          PickedTarget = M.Target;
          Found = true;
          break;
        }
      }
      assert(Found && "winning state lost on some input");
      (void)Found;
      if (!Renumber.count(PickedTarget)) {
        Renumber.emplace(PickedTarget, static_cast<uint32_t>(Order.size()));
        Order.push_back(PickedTarget);
        Queue.push_back(PickedTarget);
      }
      if (ChosenOutput.size() < Order.size()) {
        ChosenOutput.resize(Order.size());
        ChosenTarget.resize(Order.size());
      }
      uint32_t Dense = Renumber.at(S);
      if (ChosenOutput[Dense].empty()) {
        ChosenOutput[Dense].assign(NumInputs, 0);
        ChosenTarget[Dense].assign(NumInputs, 0);
      }
      ChosenOutput[Dense][In] = PickedOutput;
      ChosenTarget[Dense][In] = Renumber.at(PickedTarget);
    }
  }

  MealyMachine M(Order.size(), NumInputs);
  M.setInitialState(0);
  for (uint32_t Dense = 0; Dense < Order.size(); ++Dense)
    for (uint32_t In = 0; In < NumInputs; ++In)
      M.setEdge(Dense, In, {ChosenOutput[Dense][In], ChosenTarget[Dense][In]});
  return M;
}

std::string limitsKey(const TableauLimits &Limits) {
  return "g" + std::to_string(Limits.MaxGeneralizedStates);
}

} // namespace

struct SynthesisEngine::Impl {
  /// The memo for one (alphabet, tableau limits, negated specification):
  /// its UCW, the tableau stats of building it, and the counting-game
  /// arena explored over it.
  struct Entry {
    std::shared_ptr<const Nba> Ucw;
    TableauStats Stats;
    std::unique_ptr<GameArena> Arena;
  };

  /// Cap chosen for a pipeline run's working set: a refinement loop
  /// touches a handful of distinct specifications. Overflow drops
  /// everything (deterministic; entries are re-derivable).
  static constexpr size_t MaxEntries = 8;

  /// Cache keys render formulas and use Context-interned ids; an engine
  /// is bound to the first Context it sees.
  const Context *BoundCtx = nullptr;

  TableauCache ExpCache;
  std::unordered_map<std::string, Entry> Entries;

  SynthesisResult synthesize(const Formula *Spec, Context &Ctx,
                             const Alphabet &AB,
                             const SynthesisOptions &Options,
                             SolverPool *Pool, const Deadline &Dl);
};

SynthesisResult SynthesisEngine::Impl::synthesize(const Formula *Spec,
                                                  Context &Ctx,
                                                  const Alphabet &AB,
                                                  const SynthesisOptions &Options,
                                                  SolverPool *Pool,
                                                  const Deadline &Dl) {
  SynthesisResult Result;

  if (BoundCtx && BoundCtx != &Ctx) {
    // A different Context invalidates every formula-id-based key.
    Entries.clear();
    ExpCache.clear();
    BoundCtx = nullptr;
  }
  if (!BoundCtx)
    BoundCtx = &Ctx;

  const bool Incremental = Options.Incremental;
  // Exploration always runs through a pool; without one from the
  // caller, an inline pool (no threads) stands in.
  std::optional<SolverPool> Inline;
  SolverPool &Explore = Pool ? *Pool : Inline.emplace(1);
  Timer NbaTimer;

  // UCW = NBA of the negated specification.
  const Formula *Negated = Ctx.Formulas.notF(Spec);
  std::shared_ptr<const Nba> Ucw;
  Entry *Memo = nullptr;
  if (Incremental) {
    const Formula *Nnf = Ctx.Formulas.toNNF(Negated);
    std::string Key = AB.signatureKey() + "|" + limitsKey(Options.Tableau) +
                      "|" + Nnf->str();
    auto It = Entries.find(Key);
    if (It != Entries.end()) {
      Memo = &It->second;
      Result.Stats.NbaCacheHit = true;
      Result.Stats.Tableau = Memo->Stats;
      Ucw = Memo->Ucw;
    } else {
      size_t Hits0 = ExpCache.hits(), Misses0 = ExpCache.misses();
      TableauStats TS;
      Nba Built =
          buildNba(Negated, Ctx, AB, &TS, Options.Tableau, &ExpCache, Dl);
      Result.Stats.ExpansionCacheHits = ExpCache.hits() - Hits0;
      Result.Stats.ExpansionCacheMisses = ExpCache.misses() - Misses0;
      Result.Stats.Tableau = TS;
      Ucw = std::make_shared<const Nba>(std::move(Built));
      // Budget-exceeded automata are unusable artifacts: never cache.
      if (!TS.BudgetExceeded) {
        if (Entries.size() >= MaxEntries)
          Entries.clear();
        Memo = &Entries.emplace(std::move(Key), Entry{Ucw, TS, nullptr})
                    .first->second;
      }
    }
  } else {
    TableauStats TS;
    Nba Built = buildNba(Negated, Ctx, AB, &TS, Options.Tableau, nullptr, Dl);
    Result.Stats.Tableau = TS;
    Ucw = std::make_shared<const Nba>(std::move(Built));
  }
  Result.Stats.NbaSeconds = NbaTimer.seconds();

  if (Result.Stats.Tableau.BudgetExceeded) {
    Result.Status = Realizability::Unknown;
    Result.Stats.TimedOut = Result.Stats.Tableau.TimedOut;
    return Result;
  }

  Timer GameTimer;
  GameArena *Arena = nullptr;
  std::unique_ptr<GameArena> Local;
  if (Incremental) {
    // The entry's arena is rebuilt in place for a different state
    // budget, or when this schedule needs a bound it cannot serve.
    std::unique_ptr<GameArena> &Kept = Memo->Arena;
    if (!Kept || Kept->stateBudget() != Options.StateBudget ||
        Kept->needsRebuildFor(Options.BoundSchedule))
      Kept = std::make_unique<GameArena>(Ucw, AB, Options.StateBudget);
    Arena = Kept.get();
    // The fresh arena holds just the interned initial state; anything
    // beyond one state is reuse from an earlier call.
    Result.Stats.ArenaStatesReused =
        Arena->stateCount() > 1 ? Arena->stateCount() : 0;
  }

  // The bound schedule: explore, solve and (on a win) extract per bound.
  auto SolveSchedule = [&]() -> Realizability {
    for (unsigned Bound : Options.BoundSchedule) {
      if (!Incremental) {
        // Pre-incremental behavior: a fresh game per bound.
        Local = std::make_unique<GameArena>(Ucw, AB, Options.StateBudget);
        Arena = Local.get();
      }
      const bool Explored = Arena->extendTo(Bound, Explore, Dl);
      const std::vector<char> *Winning =
          Explored ? Arena->solve(Bound, Dl) : nullptr;
      if (Winning && Arena->initialWinning(*Winning)) {
        Result.Stats.BoundUsed = Bound;
        Result.Stats.GameStates = Arena->stateCount();
        Result.Machine = Arena->extract(Bound, *Winning);
        return Realizability::Realizable;
      }
      Result.Stats.GameStates =
          std::max(Result.Stats.GameStates, Arena->stateCount());
      if (!Winning) {
        // Exploration stops on the state budget or the deadline;
        // solving stops only on the deadline.
        Result.Stats.TimedOut = Explored || Arena->timedOut();
        return Realizability::Unknown;
      }
    }
    return Realizability::Unrealizable;
  };
  Result.Status = SolveSchedule();
  Result.Stats.GameSeconds = GameTimer.seconds();
  return Result;
}

SynthesisEngine::SynthesisEngine() : I(new Impl) {}
SynthesisEngine::~SynthesisEngine() = default;

SynthesisResult SynthesisEngine::synthesize(const Formula *Spec, Context &Ctx,
                                            const Alphabet &AB,
                                            const SynthesisOptions &Options,
                                            SolverPool *Pool,
                                            const Deadline &Dl) {
  return I->synthesize(Spec, Ctx, AB, Options, Pool, Dl);
}

SynthesisResult temos::synthesizeLtl(const Formula *Spec, Context &Ctx,
                                     const Alphabet &AB,
                                     const SynthesisOptions &Options) {
  SynthesisEngine Engine;
  return Engine.synthesize(Spec, Ctx, AB, Options, nullptr);
}
