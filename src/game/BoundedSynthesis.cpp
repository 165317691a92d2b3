//===- game/BoundedSynthesis.cpp - Bounded LTL synthesis -------------------===//
//
// Incremental counting-game engine. The key observation: the counting
// successor relation does not depend on the bound k -- only the overflow
// cutoff does. Every explored move therefore records its *weight* (the
// largest counter value it produces); a move is legal at bound B iff
// weight <= B. Escalating the bound expands the states that had a move
// past the old cutoff once more, through the same waves as the first
// exploration, instead of re-deriving the reachable graph, and solving
// restricts the fixpoint to moves of weight <= B.
//
// A game state is packed: plane c is the bitset (one bit per UCW state)
// of the UCW states whose counter is exactly c, for c from 0 up to the
// largest counter. The planes of all states sit in one flat word array,
// interned by an open-addressing table of ids over a cached hash.
//
// Successors are computed per (game state, input letter) for all output
// letters at once. The tableau emits the UCW in the form this needs:
// per state, one edge per (live target, accepting flag, input cube) with
// the output letters it admits as a mask (Nba::edges(), Nba::outputs()).
// The arena indexes those edges once per (UCW state, allowed input
// letter), merging the cubes that admit the letter per (target,
// accepting flag): an input row. One pass over the set bits of the
// planes ORs each edge of their input rows into the row of (counter +
// accepting, target). Each row then sets the target's bit in the level
// plane of every letter no higher level of the target admits: the
// letter's successor, equal to the letter-by-letter definition (the
// largest counter per target, illegal past the cutoff), whose top plane
// is its weight. Both passes are order-free (OR commutes), so targets
// are visited in whatever order the first pass touched them. The pool
// task also hashes every legal letter's planes, so the serial merge
// only probes.

// Parity with the from-scratch engine is structural, not accidental:
//  * Reachable sets are monotone in k (a bound-k move is a bound-k'
//    move for k' >= k and produces the same successor), so the
//    cumulative arena restricted to weight <= B is exactly the bound-B
//    game, and the bound-B subgraph is closed under its own moves.
//  * Re-expanding a state at a higher cutoff finds its legal targets
//    again and interns the newly legal ones in (state, input, output)
//    order, so state ids do not depend on the schedule's history.
//  * The greatest fixpoint over the full arena therefore assigns every
//    bound-B-reachable state the same winning value as the bound-B game
//    would.
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
#include <bit>
#include <deque>
#include <map>
#include <unordered_map>

using namespace temos;

namespace {

/// One machine word per 64 output letters: bit O % 64 of word O / 64
/// stands for output letter O.
using LetterMask = std::vector<uint64_t>;

/// The hash of a game state's planes (Length words at Key).
uint64_t planesHash(const uint64_t *Key, size_t Length) {
  uint64_t Hash = Length;
  for (size_t W = 0; W < Length; ++W)
    Hash = (Hash + Key[W]) * 0x9e3779b97f4a7c15ull;
  // splitmix64's finalizer, so the low bits depend on every word.
  Hash = (Hash ^ (Hash >> 30)) * 0xbf58476d1ce4e5b9ull;
  Hash = (Hash ^ (Hash >> 27)) * 0x94d049bb133111ebull;
  return Hash ^ (Hash >> 31);
}

/// Per-thread scratch for successors(): which UCW targets the pass has
/// touched, and for each touched target one row of output-letter words
/// per counter level. The invariant between calls is "RowOf is -1
/// everywhere and Rows is all zero".
struct SuccScratch {
  std::vector<int32_t> RowOf;
  std::vector<uint32_t> Touched;
  std::vector<uint64_t> Rows;
  LetterMask Overflow;
  LetterMask Seen;
  /// Per level, the letters some touched target's row holds there.
  std::vector<uint64_t> LevelLetters;
};

SuccScratch &succScratch() {
  thread_local SuccScratch S;
  return S;
}

/// The persistent counting-game arena for one (UCW, alphabet, budget).
/// Interned states, weighted move lists, and the list of states with a
/// move past the cutoff all survive bound escalation and repeated solve
/// calls.
class GameArena {
public:
  GameArena(std::shared_ptr<const Nba> UcwPtr, const Alphabet &AB,
            size_t StateBudget)
      : UcwPtr(std::move(UcwPtr)), Ucw(*this->UcwPtr), Inputs(Ucw.inputs()),
        AB(AB), StateBudget(StateBudget),
        PlaneWords((Ucw.stateCount() + 63) / 64), Table(64, NoState) {
    indexInputRows();
    std::vector<uint64_t> Initial(PlaneWords, 0);
    Initial[Ucw.initial() / 64] = uint64_t(1) << (Ucw.initial() % 64);
    // A zero budget refuses even the initial state: extendTo() then
    // reports the budget exhausted.
    (void)internState(planesHash(Initial.data(), PlaneWords), Initial.data(),
                      1);
  }

  GameArena(const GameArena &) = delete;
  GameArena &operator=(const GameArena &) = delete;

  /// Extends exploration so every move of weight <= \p B is present.
  /// Escalating the bound puts the states that had a move past the old
  /// cutoff back at the front of the frontier, where they are expanded
  /// again at cutoff \p B. Returns false when the state budget is
  /// exhausted (the initial state included) or \p Dl expired (verdict:
  /// Unknown; timedOut() distinguishes); the arena is then a partial
  /// extension, not to be used again. Successor cells of a wave of
  /// frontier states are computed across \p Pool and merged in wave
  /// order; the arena is identical for every pool width (an inline pool
  /// expands one state per wave).
  bool extendTo(unsigned B, SolverPool &Pool, const Deadline &Dl);

  /// Solves the bound-\p B safety game over the explored arena: the
  /// winning flag of every state. Requires a successful extendTo(B).
  /// Returns nullopt when \p Dl expires mid-fixpoint; a partial fixpoint
  /// is an over-approximation of the winning region. A bound solved
  /// since the arena last grew is answered from its kept fixpoint.
  std::optional<std::vector<char>> solve(unsigned B, const Deadline &Dl);

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
  /// (state, input, output) triples examined since construction.
  size_t lettersExplored() const { return LettersExplored; }
  /// The most (UCW state, counter) pairs in any interned state.
  size_t maxActive() const { return MaxActive; }

private:
  struct Move {
    uint32_t Out;
    uint32_t Target;
    uint32_t Weight;
  };

  /// One edge of an input row: a UCW target and accepting flag, its
  /// output letters at the same position in InputRowMasks.
  struct InputRowEdge {
    uint32_t Target;
    bool Accepting;
  };

  /// A state of the k-counting game, packed: plane c < Planes is the
  /// bitset of the UCW states whose counter is exactly c, PlaneWords
  /// words at StateWords[Offset + c * PlaneWords]. The top plane is not
  /// empty (no active UCW state: no plane), so equal states have equal
  /// planes. Hash is planesHash of the planes.
  struct State {
    size_t Offset;
    uint64_t Hash;
    uint32_t Planes;
  };

  /// One output letter's successor of a (wave state, input position). A
  /// legal letter's successor has Planes planes at Slot::Keys[Offset,
  /// Offset + Planes * PlaneWords); its weight is its top counter,
  /// Planes - 1 (0 without planes).
  struct Item {
    size_t Offset;
    uint64_t Hash;
    uint32_t Planes;
    bool Legal;
  };

  /// Per wave position, reused across waves: written by one pool task,
  /// read by the merge. Items[In * output letters + Out] is letter
  /// (Inputs[In], Out)'s successor.
  struct Slot {
    std::vector<Item> Items;
    std::vector<uint64_t> Keys;
  };

  static constexpr uint32_t NoState = ~uint32_t(0);

  /// Indexes the UCW's edges per (state, allowed input position): input
  /// row Q * Inputs.size() + In holds one edge per (target, accepting
  /// flag) among Q's edges whose cube admits Inputs[In], with their
  /// output letters ORed.
  void indexInputRows() {
    const size_t Words = Ucw.outputWords();
    std::vector<int32_t> SlotOf(2 * Ucw.stateCount(), -1);
    InputRowBegin.reserve(Ucw.stateCount() * Inputs.size() + 1);
    for (uint32_t Q = 0; Q < Ucw.stateCount(); ++Q) {
      const std::vector<Nba::Edge> &Edges = Ucw.edges(Q);
      for (uint32_t In : Inputs) {
        const size_t Begin = InputRowEdges.size();
        InputRowBegin.push_back(Begin);
        for (size_t I = 0; I < Edges.size(); ++I) {
          const Nba::Edge &Ed = Edges[I];
          if ((In & Ed.InputCare) != Ed.InputValue)
            continue;
          int32_t &Slot = SlotOf[2 * Ed.Target + Ed.Accepting];
          if (Slot < 0) {
            Slot = static_cast<int32_t>(InputRowEdges.size() - Begin);
            InputRowEdges.push_back({Ed.Target, Ed.Accepting});
            InputRowMasks.resize(InputRowMasks.size() + Words, 0);
          }
          const uint64_t *Mask = Ucw.outputs(Q, I);
          uint64_t *Into = &InputRowMasks[(Begin + Slot) * Words];
          for (size_t W = 0; W < Words; ++W)
            Into[W] |= Mask[W];
        }
        for (size_t I = Begin; I < InputRowEdges.size(); ++I) {
          const InputRowEdge &Ed = InputRowEdges[I];
          SlotOf[2 * Ed.Target + Ed.Accepting] = -1;
        }
      }
    }
    InputRowBegin.push_back(InputRowEdges.size());
  }

  /// The position in Table of the state with \p Planes planes \p Key and
  /// hash \p Hash, or of the empty entry where it would go.
  size_t probe(uint64_t Hash, const uint64_t *Key, uint32_t Planes) const {
    const size_t Mask = Table.size() - 1;
    const size_t Length = size_t(Planes) * PlaneWords;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      if (Table[I] == NoState)
        return I;
      const State &St = States[Table[I]];
      if (St.Hash == Hash && St.Planes == Planes &&
          std::equal(Key, Key + Length, StateWords.data() + St.Offset))
        return I;
    }
  }

  /// Interns the state with \p Planes planes \p Key and hash \p Hash,
  /// enqueueing a new state for expansion (its planes are copied into
  /// StateWords only then). Returns nullopt when the state is new and
  /// the budget is already full (the arena never holds more than
  /// StateBudget states).
  std::optional<uint32_t> internState(uint64_t Hash, const uint64_t *Key,
                                      uint32_t Planes) {
    const size_t I = probe(Hash, Key, Planes);
    if (Table[I] != NoState)
      return Table[I];
    if (States.size() >= StateBudget)
      return std::nullopt;
    const uint32_t Id = static_cast<uint32_t>(States.size());
    const size_t Length = size_t(Planes) * PlaneWords;
    States.push_back({StateWords.size(), Hash, Planes});
    StateWords.insert(StateWords.end(), Key, Key + Length);
    size_t Active = 0;
    for (size_t W = 0; W < Length; ++W)
      Active += std::popcount(Key[W]);
    MaxActive = std::max(MaxActive, Active);
    Table[I] = Id;
    if (2 * States.size() > Table.size())
      growTable();
    Moves.emplace_back();
    Pending.push_back(Id);
    return Id;
  }

  /// Doubles Table and re-inserts every state by its cached hash.
  void growTable() {
    Table.assign(2 * Table.size(), NoState);
    const size_t Mask = Table.size() - 1;
    for (uint32_t Id = 0; Id < States.size(); ++Id) {
      size_t I = States[Id].Hash & Mask;
      while (Table[I] != NoState)
        I = (I + 1) & Mask;
      Table[I] = Id;
    }
  }

  /// Appends every output letter's successor of (\p St, Inputs[In]) with
  /// overflow cutoff \p Cutoff to \p Sl (the file comment gives the
  /// pass): one Item per letter and, for a legal one, its planes and
  /// hash. A letter's first row for a target, walking levels down, holds
  /// its counter there. Reads the input rows, the interned states and
  /// per-thread scratch only, so concurrent calls for different slots
  /// are safe.
  void successors(const State &St, uint32_t In, unsigned Cutoff,
                  Slot &Sl) const {
    SuccScratch &SS = succScratch();
    if (SS.RowOf.size() < Ucw.stateCount())
      SS.RowOf.resize(Ucw.stateCount(), -1);
    SS.Touched.clear();
    const size_t NumOutputs = AB.outputLetterCount();
    const size_t Words = Ucw.outputWords();
    SS.Overflow.assign(Words, 0);

    // Counters never exceed the cutoff, so levels run up to one past the
    // top plane, and that one only while it is within the cutoff.
    const size_t Levels = std::min<size_t>(St.Planes, Cutoff) + 1;

    const uint64_t *Planes = StateWords.data() + St.Offset;
    for (uint32_t Count = 0; Count < St.Planes; ++Count) {
      for (size_t PW = 0; PW < PlaneWords; ++PW) {
        for (uint64_t Bits = Planes[Count * PlaneWords + PW]; Bits;
             Bits &= Bits - 1) {
          const size_t Q = PW * 64 + std::countr_zero(Bits);
          const size_t Row = Q * Inputs.size() + In;
          for (size_t I = InputRowBegin[Row]; I < InputRowBegin[Row + 1];
               ++I) {
            const InputRowEdge &Ed = InputRowEdges[I];
            const uint64_t *Mask = &InputRowMasks[I * Words];
            const unsigned Level = Count + Ed.Accepting;
            uint64_t *Into = SS.Overflow.data();
            if (Level <= Cutoff) {
              int32_t &TargetRow = SS.RowOf[Ed.Target];
              if (TargetRow < 0) {
                TargetRow = static_cast<int32_t>(SS.Touched.size());
                SS.Touched.push_back(Ed.Target);
                if (SS.Rows.size() < SS.Touched.size() * Levels * Words)
                  SS.Rows.resize(SS.Touched.size() * Levels * Words, 0);
              }
              Into = &SS.Rows[(TargetRow * Levels + Level) * Words];
            }
            for (size_t W = 0; W < Words; ++W)
              Into[W] |= Mask[W];
          }
        }
      }
    }

    // A legal letter's top plane is the highest level any target's row
    // admits it at: lay out each legal letter's planes in Sl.Keys.
    const size_t Base = Sl.Items.size();
    for (size_t Out = 0; Out < NumOutputs; ++Out)
      Sl.Items.push_back(
          {0, 0, 0, !((SS.Overflow[Out / 64] >> (Out % 64)) & 1)});
    Item *Items = &Sl.Items[Base];
    SS.LevelLetters.assign(Levels * Words, 0);
    for (uint32_t Target : SS.Touched) {
      const uint64_t *Row = &SS.Rows[SS.RowOf[Target] * Levels * Words];
      for (size_t W = 0; W < Levels * Words; ++W)
        SS.LevelLetters[W] |= Row[W];
    }
    SS.Seen.assign(Words, 0);
    for (size_t Level = Levels; Level-- > 0;) {
      const uint64_t *Letters = &SS.LevelLetters[Level * Words];
      for (size_t W = 0; W < Words; ++W) {
        uint64_t New = Letters[W] & ~SS.Seen[W] & ~SS.Overflow[W];
        SS.Seen[W] |= New;
        for (; New; New &= New - 1)
          Items[W * 64 + std::countr_zero(New)].Planes =
              static_cast<uint32_t>(Level + 1);
      }
    }
    size_t End = Sl.Keys.size();
    for (size_t Out = 0; Out < NumOutputs; ++Out) {
      Items[Out].Offset = End;
      if (Items[Out].Legal)
        End += Items[Out].Planes * PlaneWords;
    }
    Sl.Keys.resize(End, 0);

    // Then scatter: each (target, level) row sets the target's bit in the
    // level plane of the letters no higher level of it admits.
    for (uint32_t Target : SS.Touched) {
      int32_t &Row = SS.RowOf[Target];
      std::fill(SS.Seen.begin(), SS.Seen.end(), 0);
      for (size_t Level = Levels; Level-- > 0;) {
        uint64_t *Letters = &SS.Rows[(Row * Levels + Level) * Words];
        const size_t At = Level * PlaneWords + Target / 64;
        const uint64_t Bit = uint64_t(1) << (Target % 64);
        for (size_t W = 0; W < Words; ++W) {
          uint64_t New = Letters[W] & ~SS.Seen[W] & ~SS.Overflow[W];
          SS.Seen[W] |= Letters[W];
          Letters[W] = 0;
          for (; New; New &= New - 1)
            Sl.Keys[Items[W * 64 + std::countr_zero(New)].Offset + At] |= Bit;
        }
      }
      Row = -1;
    }
    for (size_t Out = 0; Out < NumOutputs; ++Out)
      if (Items[Out].Legal)
        Items[Out].Hash = planesHash(Sl.Keys.data() + Items[Out].Offset,
                                     Items[Out].Planes * PlaneWords);
  }

  bool drainPending(unsigned B, SolverPool &Pool, const Deadline &Dl);

  std::shared_ptr<const Nba> UcwPtr;
  const Nba &Ucw;
  /// The input letters the environment can play (the UCW's allowed
  /// letters); moves are indexed by position in this list.
  const std::vector<uint32_t> &Inputs;
  Alphabet AB; // Own copy: callers' alphabets are per-round temporaries.
  size_t StateBudget;
  /// The UCW's edges per (state, input position) (see indexInputRows):
  /// input row R is InputRowEdges[InputRowBegin[R], InputRowBegin[R + 1]),
  /// edge I's output letters InputRowMasks[I * W, (I + 1) * W) with W the
  /// UCW's outputWords().
  std::vector<size_t> InputRowBegin;
  std::vector<InputRowEdge> InputRowEdges;
  std::vector<uint64_t> InputRowMasks;

  /// Words per counter plane: one bit per UCW state.
  const size_t PlaneWords;
  /// The interned states by id, their planes in one flat array.
  std::vector<State> States;
  std::vector<uint64_t> StateWords;
  /// Open addressing over States by hash, linear probing; NoState marks
  /// an empty entry. At most half full, so every probe ends.
  std::vector<uint32_t> Table;
  /// Moves[state][input position], sorted by output letter; only moves
  /// whose weight fit the explored bound are present.
  std::vector<std::vector<std::vector<Move>>> Moves;
  /// States with a move past the explored bound's cutoff, in merge
  /// order: expanded again when the bound escalates.
  std::vector<uint32_t> Overflowing;
  /// Frontier still to be expanded (FIFO).
  std::deque<uint32_t> Pending;
  /// Highest bound fully explored; -1 = nothing expanded yet.
  int64_t ExploredBound = -1;
  /// The winning region of each bound solved since extendTo last added
  /// a state or a move.
  std::map<unsigned, std::vector<char>> Solved;
  /// Last failure cause: deadline (true) vs. state budget (false).
  bool TimedOut = false;
  size_t LettersExplored = 0;
  size_t MaxActive = 0;
};

bool GameArena::extendTo(unsigned B, SolverPool &Pool, const Deadline &Dl) {
  TimedOut = false;
  // The budget refused the initial state.
  if (States.empty())
    return false;
  if (static_cast<int64_t>(B) <= ExploredBound)
    return true;
  // Pending is empty here unless nothing is expanded yet (then nothing
  // overflows either): on escalation the overflowing states are the
  // frontier, expanded again in merge order.
  Pending.insert(Pending.begin(), Overflowing.begin(), Overflowing.end());
  Overflowing.clear();
  // Expanding re-adds moves: every kept fixpoint is stale.
  Solved.clear();
  if (!drainPending(B, Pool, Dl))
    return false;
  ExploredBound = B;
  return true;
}

bool GameArena::drainPending(unsigned B, SolverPool &Pool,
                             const Deadline &Dl) {
  const uint32_t NumInputs = static_cast<uint32_t>(Inputs.size());
  const uint32_t NumOutputs = static_cast<uint32_t>(AB.outputLetterCount());
  // Wave size: how many frontier states are expanded per round. 1 on an
  // inline pool, which makes every wave boundary a state boundary.
  const size_t WaveCap = Pool.workerCount() > 0 ? 256 : 1;
  std::vector<Slot> Slots;
  std::vector<uint32_t> Wave;

  while (!Pending.empty()) {
    if (Dl.expired()) {
      TimedOut = true;
      return false;
    }
    const size_t WaveLen = std::min(Pending.size(), WaveCap);
    Wave.assign(Pending.begin(), Pending.begin() + WaveLen);
    Pending.erase(Pending.begin(), Pending.begin() + WaveLen);
    if (Slots.size() < WaveLen)
      Slots.resize(WaveLen);

    // Compute every (allowed input, output) successor of every wave
    // state, planes and hash. Reads are confined to the UCW and the
    // immutable interned states; writes go to the state's own slot.
    Pool.forEach(WaveLen, [&](size_t W) {
      Slot &Sl = Slots[W];
      Sl.Items.clear();
      Sl.Keys.clear();
      for (uint32_t In = 0; In < NumInputs; ++In)
        successors(States[Wave[W]], In, B, Sl);
    });

    // Then merge sequentially in wave order: only probes, as the hashes
    // are computed. Interning order is exactly the state-by-state order,
    // so state ids -- and everything downstream -- are identical for
    // every pool width.
    for (size_t W = 0; W < WaveLen; ++W) {
      const uint32_t S = Wave[W];
      const Slot &Sl = Slots[W];
      Moves[S].assign(NumInputs, {});
      LettersExplored += Sl.Items.size();
      bool Overflows = false;
      for (uint32_t In = 0; In < NumInputs; ++In) {
        for (uint32_t Out = 0; Out < NumOutputs; ++Out) {
          const Item &It = Sl.Items[size_t(In) * NumOutputs + Out];
          if (!It.Legal) {
            Overflows = true;
            continue;
          }
          std::optional<uint32_t> Target =
              internState(It.Hash, Sl.Keys.data() + It.Offset, It.Planes);
          if (!Target)
            return false;
          Moves[S][In].push_back(
              {Out, *Target, It.Planes > 0 ? It.Planes - 1 : 0});
        }
      }
      if (Overflows)
        Overflowing.push_back(S);
    }
  }
  return true;
}

std::optional<std::vector<char>> GameArena::solve(unsigned B,
                                                  const Deadline &Dl) {
  // Greatest fixpoint: a state is winning while for every input some
  // legal (weight <= B) output leads to a winning state.
  TimedOut = false;
  if (auto It = Solved.find(B); It != Solved.end()) {
    // The deadline answers as it would before the first sweep.
    if (Dl.expired()) {
      TimedOut = true;
      return std::nullopt;
    }
    return It->second;
  }
  std::vector<char> Winning(States.size(), 1);
  bool Changed = true;
  while (Changed) {
    if (Dl.expired()) {
      // A partially-converged gfp over-approximates the winning region:
      // unsound to report. Drop it.
      TimedOut = true;
      return std::nullopt;
    }
    Changed = false;
    for (uint32_t S = 0; S < States.size(); ++S) {
      if (!Winning[S])
        continue;
      bool Safe = true;
      for (const std::vector<Move> &PerInput : Moves[S]) {
        bool SomeOutputWins = false;
        for (const Move &M : PerInput) {
          if (M.Weight <= B && Winning[M.Target]) {
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
        Winning[S] = 0;
        Changed = true;
      }
    }
  }
  Solved[B] = Winning;
  return Winning;
}

MealyMachine GameArena::extract(unsigned B,
                                const std::vector<char> &Winning) const {
  const size_t NumInputs = Inputs.size();

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

  MealyMachine M(Order.size(), AB.inputLetterCount(), Inputs,
                 AB.idleOutput());
  M.setInitialState(0);
  for (uint32_t Dense = 0; Dense < Order.size(); ++Dense)
    for (uint32_t In = 0; In < NumInputs; ++In)
      M.setEdge(Dense, Inputs[In],
                {ChosenOutput[Dense][In], ChosenTarget[Dense][In]});
  return M;
}

} // namespace

struct SynthesisEngine::Impl {
  /// The memo for one (alphabet, tableau state budget, NNF of the
  /// negated specification): its UCW, the tableau stats of building it,
  /// and the counting-game arena explored over it.
  struct Entry {
    Alphabet AB;
    size_t MaxGeneralizedStates;
    const Formula *Nnf;
    std::shared_ptr<const Nba> Ucw;
    TableauStats Stats;
    std::unique_ptr<GameArena> Arena;
  };

  /// Cap chosen for a pipeline run's working set: a refinement loop
  /// touches a handful of distinct specifications. Overflow drops
  /// everything (deterministic; entries are re-derivable).
  static constexpr size_t MaxEntries = 8;

  /// Entries are keyed on interned nodes, which identify a formula only
  /// within their Context; an engine is bound to the first Context it
  /// sees.
  const Context *BoundCtx = nullptr;

  TableauCache ExpCache;
  std::vector<Entry> Entries;

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
    // A different Context invalidates every node-keyed entry.
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
    const size_t Budget = Options.Tableau.MaxGeneralizedStates;
    auto It = std::find_if(Entries.begin(), Entries.end(), [&](const Entry &E) {
      return E.Nnf == Nnf && E.MaxGeneralizedStates == Budget && E.AB == AB;
    });
    if (It != Entries.end()) {
      Memo = &*It;
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
        Memo = &Entries.emplace_back(Entry{AB, Budget, Nnf, Ucw, TS, nullptr});
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
  Result.Stats.InputLetters = Ucw->inputs().size();

  Timer GameTimer;
  GameArena *Arena = nullptr;
  std::unique_ptr<GameArena> Local;
  if (Incremental) {
    // The entry's arena is rebuilt in place for a different state
    // budget.
    std::unique_ptr<GameArena> &Kept = Memo->Arena;
    if (!Kept || Kept->stateBudget() != Options.StateBudget)
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
      const size_t Letters0 = Arena->lettersExplored();
      const bool Explored = Arena->extendTo(Bound, Explore, Dl);
      Result.Stats.LettersExplored += Arena->lettersExplored() - Letters0;
      Result.Stats.MaxActive =
          std::max(Result.Stats.MaxActive, Arena->maxActive());
      const std::optional<std::vector<char>> Winning =
          Explored ? Arena->solve(Bound, Dl) : std::nullopt;
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
  // An Unknown call stopped mid-extension or mid-fixpoint: the next call
  // starts over from a fresh arena.
  if (Incremental && Result.Status == Realizability::Unknown)
    Memo->Arena.reset();
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
