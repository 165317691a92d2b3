//===- automata/Tableau.cpp - LTL tableau construction ---------------------===//

#include "automata/Tableau.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <span>
#include <unordered_map>

using namespace temos;

namespace {

/// Edge budget of one construction (exceeded -> BudgetExceeded), checked
/// on the merged edges of the generalized automaton and again on those
/// of the degeneralized one.
constexpr size_t MaxTransitions = 2000000;

/// One machine word per 64 output letters: bit O % 64 of word O / 64
/// stands for output letter O.
using LetterMask = std::vector<uint64_t>;

/// Interns fixed-width bitsets: ids are dense, in first-intern order.
/// Open addressing over the ids, with each set's hash kept beside it.
class BitsetIds {
public:
  explicit BitsetIds(size_t Words) : Words(Words), Slots(16, Empty) {}

  /// The id of the \p Words-word set at \p Set (which must not point into
  /// this index), and whether it was interned just now.
  std::pair<uint32_t, bool> intern(const uint64_t *Set) {
    uint64_t Hash = 0x9e3779b97f4a7c15ull;
    for (size_t W = 0; W < Words; ++W)
      Hash = (Hash ^ Set[W]) * 0xff51afd7ed558ccdull;
    Hash ^= Hash >> 32;
    size_t Slot = find(Hash, Set);
    if (Slots[Slot] != Empty)
      return {Slots[Slot], false};
    const uint32_t Id = size();
    Sets.insert(Sets.end(), Set, Set + Words);
    Hashes.push_back(Hash);
    Slots[Slot] = Id;
    if (2 * Hashes.size() > Slots.size())
      grow();
    return {Id, true};
  }

  const uint64_t *set(uint32_t Id) const { return &Sets[size_t(Id) * Words]; }
  uint32_t size() const { return static_cast<uint32_t>(Hashes.size()); }

private:
  static constexpr uint32_t Empty = UINT32_MAX;

  /// The slot holding \p Set, or the empty slot it would go into.
  size_t find(uint64_t Hash, const uint64_t *Set) const {
    const size_t Mask = Slots.size() - 1;
    for (size_t Slot = Hash & Mask;; Slot = (Slot + 1) & Mask) {
      const uint32_t Id = Slots[Slot];
      if (Id == Empty ||
          (Hashes[Id] == Hash && std::equal(Set, Set + Words, set(Id))))
        return Slot;
    }
  }

  void grow() {
    Slots.assign(Slots.size() * 2, Empty);
    for (uint32_t Id = 0; Id < size(); ++Id)
      Slots[find(Hashes[Id], set(Id))] = Id;
  }

  size_t Words;
  std::vector<uint32_t> Slots;
  std::vector<uint64_t> Sets;
  std::vector<uint64_t> Hashes;
};

constexpr uint32_t NoFormula = UINT32_MAX;

/// The NNF closure of one build's root formula, indexed in formula-id
/// order: bit I of a state set stands for formula I. Each formula comes
/// with what expansion does with it, compiled once per build.
///
/// A connective has its expansion law, one alternative per disjunct:
///
///   f && g : f, g                  f || g : f  |  g
///   X f    : next f                G f    : f, next G f
///   F f    : f  |  next F f (d)     a U b  : b  |  a, next a U b (d)
///   a W b  : b  |  a, next a W b    a R b  : a, b  |  b, next a R b
///
/// (d) marks the alternative that defers an eventuality: it carries the
/// formula's acceptance-set bit. True has one empty alternative and
/// False none. A literal has no law: a predicate fixes one bit of the
/// branch's input cube, an update keeps the output letters that choose
/// its option (or, negated, those that do not).
class Closure {
public:
  enum class Rule : uint8_t {
    Expand,
    /// Fixes input bit Bit to Want.
    InputBit,
    /// ANDs the letter mask at Mask into the branch's letters.
    Letters,
  };
  struct Entry {
    Rule R = Rule::Expand;
    uint32_t Bit = 0;
    uint32_t Want = 0;
    uint32_t Mask = 0;
    /// Expand: alternatives [AltBegin, AltEnd) of Alternatives.
    uint32_t AltBegin = 0;
    uint32_t AltEnd = 0;
  };
  struct Alternative {
    /// Formulas now: NowList[NowBegin, NowEnd), in child order.
    uint32_t NowBegin = 0;
    uint32_t NowEnd = 0;
    uint32_t Next = NoFormula;
    uint64_t Defer = 0;
  };

  Closure(const Formula *Root, const Alphabet &AB) {
    std::set<const Formula *> Seen;
    collect(Root, Seen);
    Formulas.assign(Seen.begin(), Seen.end());
    std::sort(Formulas.begin(), Formulas.end(),
              [](const Formula *A, const Formula *B) {
                return A->id() < B->id();
              });
    for (uint32_t I = 0; I < Formulas.size(); ++I)
      IndexOf.emplace(Formulas[I], I);
    Words = (Formulas.size() + 63) / 64;
    OutputWords = (AB.outputLetterCount() + 63) / 64;

    AllLetters.assign(OutputWords, 0);
    std::vector<std::vector<LetterMask>> OptionLetters(AB.cells().size());
    for (size_t C = 0; C < AB.cells().size(); ++C)
      OptionLetters[C].assign(AB.cells()[C].Options.size(),
                              LetterMask(OutputWords));
    for (uint32_t O = 0; O < AB.outputLetterCount(); ++O) {
      const std::vector<unsigned> Choices = AB.decodeOutput(O);
      for (size_t C = 0; C < Choices.size(); ++C)
        OptionLetters[C][Choices[C]][O / 64] |= uint64_t(1) << (O % 64);
      AllLetters[O / 64] |= uint64_t(1) << (O % 64);
    }
    Entries.resize(Formulas.size());
    for (uint32_t I = 0; I < Formulas.size(); ++I) {
      const Formula *F = Formulas[I];
      Entry &E = Entries[I];
      if (F->is(Formula::Kind::Pred) || F->is(Formula::Kind::Update) ||
          F->is(Formula::Kind::Not)) {
        compileLiteral(F, E, AB, OptionLetters);
        continue;
      }
      E.AltBegin = static_cast<uint32_t>(Alternatives.size());
      addLaw(F);
      E.AltEnd = static_cast<uint32_t>(Alternatives.size());
    }
  }

  uint32_t index(const Formula *F) const { return IndexOf.at(F); }

  /// Until/Finally subformulas in first-visit order: acceptance set I.
  std::vector<const Formula *> Acceptance;
  std::vector<Entry> Entries;
  std::vector<Alternative> Alternatives;
  std::vector<uint32_t> NowList;
  /// Letters literals' masks, OutputWords words each.
  std::vector<uint64_t> LiteralMasks;
  LetterMask AllLetters;
  /// Words of a state set and of a letter mask.
  size_t Words = 0;
  size_t OutputWords = 0;

private:
  void collect(const Formula *F, std::set<const Formula *> &Seen) {
    if (!Seen.insert(F).second)
      return;
    if (F->is(Formula::Kind::Until) || F->is(Formula::Kind::Finally))
      Acceptance.push_back(F);
    for (const Formula *Kid : F->children())
      collect(Kid, Seen);
  }

  /// Appends the alternatives of \p F's law.
  void addLaw(const Formula *F) {
    const std::span<const Formula *const> Kids = F->children();
    auto Alt = [&](std::span<const Formula *const> Now,
                   const Formula *Next = nullptr, bool Defers = false) {
      Alternative A;
      A.NowBegin = static_cast<uint32_t>(NowList.size());
      for (const Formula *G : Now)
        NowList.push_back(index(G));
      A.NowEnd = static_cast<uint32_t>(NowList.size());
      A.Next = Next ? index(Next) : NoFormula;
      if (Defers) {
        // A closure with more acceptance sets than defer-mask bits is
        // refused before anything is expanded.
        const size_t Set =
            std::find(Acceptance.begin(), Acceptance.end(), F) -
            Acceptance.begin();
        if (Set < MaxAcceptanceSets)
          A.Defer = uint64_t(1) << Set;
      }
      Alternatives.push_back(A);
    };
    switch (F->kind()) {
    case Formula::Kind::True:
      Alt({});
      return;
    case Formula::Kind::False:
      return;
    case Formula::Kind::And:
      Alt(Kids);
      return;
    case Formula::Kind::Or:
      for (size_t I = 0; I < Kids.size(); ++I)
        Alt(Kids.subspan(I, 1));
      return;
    case Formula::Kind::Next:
      Alt({}, Kids[0]);
      return;
    case Formula::Kind::Globally:
      Alt(Kids, F);
      return;
    case Formula::Kind::Finally:
      Alt(Kids);
      Alt({}, F, true);
      return;
    case Formula::Kind::Until:
      Alt(Kids.subspan(1));
      Alt(Kids.first(1), F, true);
      return;
    case Formula::Kind::WeakUntil:
      Alt(Kids.subspan(1));
      Alt(Kids.first(1), F);
      return;
    case Formula::Kind::Release:
      Alt(Kids);
      Alt(Kids.subspan(1), F);
      return;
    case Formula::Kind::Pred:
    case Formula::Kind::Update:
    case Formula::Kind::Not:
    case Formula::Kind::Implies:
    case Formula::Kind::Iff:
      break;
    }
    assert(false && "no expansion law: a literal, or not in NNF");
  }

  void compileLiteral(const Formula *Literal, Entry &E, const Alphabet &AB,
                      const std::vector<std::vector<LetterMask>> &Options) {
    const bool Positive = !Literal->is(Formula::Kind::Not);
    const Formula *Atom = Positive ? Literal : Literal->child(0);
    if (Atom->is(Formula::Kind::Pred)) {
      const int I = AB.predicateIndex(Atom->pred());
      assert(I >= 0 && "predicate not registered in alphabet");
      E.R = Rule::InputBit;
      E.Bit = uint32_t(1) << I;
      E.Want = Positive ? E.Bit : 0;
      return;
    }
    assert(Atom->is(Formula::Kind::Update) && "tableau input must be in NNF");
    auto [Cell, Option] = AB.updateIndex(Atom);
    assert(Cell >= 0 && "update cell not registered in alphabet");
    E.R = Rule::Letters;
    E.Mask = static_cast<uint32_t>(LiteralMasks.size());
    // An update term that is not an available option never fires: the
    // positive literal keeps no letter, the negative one every letter.
    for (size_t W = 0; W < OutputWords; ++W) {
      const uint64_t Chooses = Option < 0 ? 0 : Options[Cell][Option][W];
      LiteralMasks.push_back(Positive ? Chooses : ~Chooses);
    }
  }

  std::vector<const Formula *> Formulas;
  std::unordered_map<const Formula *, uint32_t> IndexOf;
};

/// A state's branches, which is also the cached unit of per-state work:
/// per branch its input cube and defer mask, and in Words its successor
/// obligation set (Closure::Words words) followed by its output letters
/// (Closure::OutputWords words).
struct Expansion {
  struct Branch {
    uint32_t InputCare = 0;
    uint32_t InputValue = 0;
    uint64_t Defer = 0;
  };
  std::vector<Branch> Branches;
  std::vector<uint64_t> Words;
};

/// Expands a state set into its branches, depth first over an explicit
/// stack of frames that keep their buffers from state to state.
/// Expansion depends only on the state set and the closure, never on
/// the surrounding automaton, which is what makes its results cacheable
/// across builds of the same closure.
class Expander {
public:
  explicit Expander(const Closure &C)
      : C(C), NextAt(C.Words), OutputsAt(2 * C.Words),
        FrameWords(2 * C.Words + C.OutputWords) {}

  void expand(const uint64_t *State, Expansion &Out) {
    Out.Branches.clear();
    Out.Words.clear();
    Depth = 0;
    Frame &Root = push();
    Root.Worklist.clear();
    // Popped from the back: the lowest formula index is expanded first.
    for (size_t W = C.Words; W-- > 0;)
      for (uint64_t Bits = State[W]; Bits;) {
        const unsigned Top = 63 - std::countl_zero(Bits);
        Root.Worklist.push_back(static_cast<uint32_t>(W * 64 + Top));
        Bits &= ~(uint64_t(1) << Top);
      }
    Root.Bits.assign(FrameWords, 0);
    std::copy(C.AllLetters.begin(), C.AllLetters.end(),
              Root.Bits.begin() + OutputsAt);
    Root.InputCare = Root.InputValue = 0;
    Root.Defer = 0;
    while (Depth > 0)
      step(Out);
  }

private:
  /// A branch under construction: the formulas still to expand (popped
  /// from the back) and, in Bits, the formulas already expanded, the
  /// next-state obligations and the output letters.
  struct Frame {
    std::vector<uint32_t> Worklist;
    std::vector<uint64_t> Bits;
    uint32_t InputCare = 0;
    uint32_t InputValue = 0;
    uint64_t Defer = 0;
  };

  Frame &push() {
    if (Stack.size() == Depth)
      Stack.emplace_back();
    return Stack[Depth++];
  }

  /// Expands one formula of the top frame, or records it as a branch
  /// when nothing is left to expand.
  void step(Expansion &Out) {
    Frame &Fr = Stack[Depth - 1];
    if (Fr.Worklist.empty()) {
      Out.Branches.push_back({Fr.InputCare, Fr.InputValue, Fr.Defer});
      Out.Words.insert(Out.Words.end(), Fr.Bits.begin() + NextAt,
                       Fr.Bits.end());
      --Depth;
      return;
    }
    const uint32_t I = Fr.Worklist.back();
    Fr.Worklist.pop_back();
    uint64_t &Processed = Fr.Bits[I / 64];
    const uint64_t Bit = uint64_t(1) << (I % 64);
    if (Processed & Bit)
      return;
    Processed |= Bit;
    const Closure::Entry &E = C.Entries[I];
    if (E.R != Closure::Rule::Expand) {
      // Pruning at the first contradiction spares the exponentially
      // many dead branches of large assumption conjunctions.
      if (!addLiteral(Fr, E))
        --Depth;
      return;
    }
    const uint32_t Alts = E.AltEnd - E.AltBegin;
    if (Alts == 0) {
      --Depth; // Dead branch.
      return;
    }
    // The one place a branch splits. The frame and Alts - 1 copies above
    // it take the alternatives last to first, so the top one, which
    // runs next, takes alternative 0.
    const size_t Base = Depth - 1;
    for (uint32_t K = 1; K < Alts; ++K)
      push();
    for (uint32_t K = 1; K < Alts; ++K)
      Stack[Base + K] = Stack[Base];
    for (uint32_t K = 0; K < Alts; ++K)
      apply(Stack[Base + K], C.Alternatives[E.AltEnd - 1 - K]);
  }

  void apply(Frame &Fr, const Closure::Alternative &Alt) const {
    Fr.Worklist.insert(Fr.Worklist.end(), C.NowList.begin() + Alt.NowBegin,
                       C.NowList.begin() + Alt.NowEnd);
    if (Alt.Next != NoFormula)
      Fr.Bits[NextAt + Alt.Next / 64] |= uint64_t(1) << (Alt.Next % 64);
    Fr.Defer |= Alt.Defer;
  }

  /// Compiles a literal into \p Fr. False on a contradiction: a clash on
  /// an input bit, or no output letter left (every cell has a
  /// self-update, so a live branch always has one).
  bool addLiteral(Frame &Fr, const Closure::Entry &E) const {
    if (E.R == Closure::Rule::InputBit) {
      if ((Fr.InputCare & E.Bit) && (Fr.InputValue & E.Bit) != E.Want)
        return false;
      Fr.InputCare |= E.Bit;
      Fr.InputValue |= E.Want;
      return true;
    }
    uint64_t Any = 0;
    uint64_t *Outputs = Fr.Bits.data() + OutputsAt;
    const uint64_t *Mask = &C.LiteralMasks[E.Mask];
    for (size_t W = 0; W < C.OutputWords; ++W)
      Any |= Outputs[W] &= Mask[W];
    return Any != 0;
  }

  const Closure &C;
  /// Offsets in Frame::Bits: processed formulas at 0, then the next-state
  /// set, then the output letters.
  const size_t NextAt;
  const size_t OutputsAt;
  const size_t FrameWords;
  std::vector<Frame> Stack;
  size_t Depth = 0;
};

/// True if \p F is a Boolean combination of predicate atoms: a fact
/// about the environment's letter of the current step alone.
bool isInputOnly(const Formula *F) {
  switch (F->kind()) {
  case Formula::Kind::True:
  case Formula::Kind::False:
  case Formula::Kind::Pred:
    return true;
  case Formula::Kind::Not:
  case Formula::Kind::And:
  case Formula::Kind::Or:
    return std::all_of(F->children().begin(), F->children().end(),
                       isInputOnly);
  default:
    return false;
  }
}

/// Truth of the input-only formula \p F on input letter \p In.
bool holdsOn(const Formula *F, uint32_t In, const Alphabet &AB) {
  auto Holds = [&](const Formula *Kid) { return holdsOn(Kid, In, AB); };
  switch (F->kind()) {
  case Formula::Kind::True:
    return true;
  case Formula::Kind::Pred:
    return AB.holds(F, Letter{In, 0});
  case Formula::Kind::Not:
    return !Holds(F->child(0));
  case Formula::Kind::And:
    return std::all_of(F->children().begin(), F->children().end(), Holds);
  case Formula::Kind::Or:
    return std::any_of(F->children().begin(), F->children().end(), Holds);
  default:
    assert(F->is(Formula::Kind::False) && "not input-only");
    return false;
  }
}

/// Peels the input-only invariants off the NNF formula \p Nnf: every
/// top-level conjunct G psi with psi input-only is removed, and the
/// letters satisfying every such psi are stored in \p Inputs
/// (ascending). Returns the conjunction of the remaining conjuncts.
///
/// The environment owns psi, so a word that leaves the psi-letters
/// violates the formula whatever else it does: the automaton of the
/// rest, read over the allowed letters only, accepts exactly the
/// formula's words. Read universally, as the game's UCW, the same
/// filter restricts the environment to psi-letters, which gives the
/// same game.
const Formula *peelInputInvariants(const Formula *Nnf, Context &Ctx,
                                   const Alphabet &AB,
                                   std::vector<uint32_t> &Inputs) {
  std::vector<const Formula *> Conjuncts = {Nnf};
  if (Nnf->is(Formula::Kind::And))
    Conjuncts = Nnf->children();
  std::vector<const Formula *> Invariants, Rest;
  for (const Formula *C : Conjuncts) {
    if (C->is(Formula::Kind::Globally) && isInputOnly(C->child(0)))
      Invariants.push_back(C->child(0));
    else
      Rest.push_back(C);
  }
  Inputs.clear();
  for (uint32_t In = 0; In < AB.inputLetterCount(); ++In)
    if (std::all_of(Invariants.begin(), Invariants.end(),
                    [&](const Formula *Psi) { return holdsOn(Psi, In, AB); }))
      Inputs.push_back(In);
  return Ctx.Formulas.andF(std::move(Rest));
}

} // namespace

struct TableauCache::Impl {
  /// Keeps the memo from growing without bound on open-ended workloads;
  /// comfortably above the working set of the bundled benchmarks. Hit
  /// once, every entry is dropped (deterministic, and far simpler than
  /// LRU for entries that are cheap to recompute).
  static constexpr size_t MaxEntries = size_t(1) << 16;

  /// The expansions of one closure: state set I expands to
  /// Expansions[I].
  struct Table {
    explicit Table(size_t Words) : States(Words) {}
    BitsetIds States;
    std::vector<Expansion> Expansions;
  };

  /// The table of (alphabet, root formula): state sets are indexed over
  /// the root's closure, and cubes and masks compile against the
  /// alphabet's bit and letter indices.
  Table &table(const Alphabet &AB, const Formula *Root, size_t Words) {
    return Tables.try_emplace({AB, Root}, Words).first->second;
  }

  std::map<std::pair<Alphabet, const Formula *>, Table> Tables;
  size_t Entries = 0;
  size_t Hits = 0;
  size_t Misses = 0;
};

TableauCache::TableauCache() : I(new Impl) {}
TableauCache::~TableauCache() = default;
size_t TableauCache::hits() const { return I->Hits; }
size_t TableauCache::misses() const { return I->Misses; }
size_t TableauCache::size() const { return I->Entries; }
void TableauCache::clear() {
  I->Tables.clear();
  I->Entries = I->Hits = I->Misses = 0;
}

Nba temos::buildNba(const Formula *F, Context &Ctx, const Alphabet &AB,
                    TableauStats *Stats, const TableauLimits &Limits,
                    TableauCache *Cache, const Deadline &Dl) {
  std::vector<uint32_t> Inputs;
  const Formula *Nnf =
      peelInputInvariants(Ctx.Formulas.toNNF(F), Ctx, AB, Inputs);

  Closure Cl(Nnf, AB);
  const size_t K = Cl.Acceptance.size();
  if (Stats)
    Stats->AcceptanceSets = K;
  // A cut-off build: the returned automaton is unusable.
  auto Abort = [&](bool TimedOut) {
    if (Stats) {
      Stats->BudgetExceeded = true;
      Stats->TimedOut = TimedOut;
    }
    return Nba();
  };
  if (K > MaxAcceptanceSets)
    return Abort(false);
  const size_t SetWords = Cl.Words;
  const size_t OutputWords = Cl.OutputWords;
  const size_t BranchWords = SetWords + OutputWords;

  // Generalized automaton: states are obligation sets, numbered in
  // discovery order and expanded in that order, so state S's edges are
  // [FirstEdge[S], FirstEdge[S + 1]). A state's branches merge into one
  // edge per (target, defer mask, input cube) whose output letters
  // (Masks, OutputWords words per edge) are the union of theirs.
  struct GeneralizedEdge {
    uint64_t DeferMask = 0;
    uint32_t Target = 0;
    uint32_t InputCare = 0;
    uint32_t InputValue = 0;
    bool operator==(const GeneralizedEdge &) const = default;
  };
  struct EdgeHash {
    size_t operator()(const GeneralizedEdge &E) const {
      uint64_t H = E.DeferMask * 0x9e3779b97f4a7c15ull;
      H ^= (uint64_t(E.Target) << 32 | E.InputCare) * 0xff51afd7ed558ccdull;
      H ^= uint64_t(E.InputValue) * 0xc4ceb9fe1a85ec53ull;
      return static_cast<size_t>(H ^ (H >> 29));
    }
  };
  BitsetIds States(SetWords);
  std::vector<size_t> FirstEdge;
  std::vector<GeneralizedEdge> Edges;
  std::vector<uint64_t> Masks;

  // One state's branches, cache-aware: a reference into the cache
  // (entries are never mutated after insertion) or into Scratch for
  // uncached builds.
  Expander Exp(Cl);
  Expansion Scratch;
  TableauCache::Impl *C = Cache ? Cache->I.get() : nullptr;
  TableauCache::Impl::Table *Memo = C ? &C->table(AB, Nnf, SetWords) : nullptr;
  auto Expand = [&](const uint64_t *Set) -> const Expansion & {
    if (!C) {
      Exp.expand(Set, Scratch);
      return Scratch;
    }
    auto [Id, New] = Memo->States.intern(Set);
    if (!New) {
      ++C->Hits;
      return Memo->Expansions[Id];
    }
    ++C->Misses;
    if (C->Entries >= TableauCache::Impl::MaxEntries) {
      C->Tables.clear();
      C->Entries = 0;
      Memo = &C->table(AB, Nnf, SetWords);
      Memo->States.intern(Set);
    }
    ++C->Entries;
    Exp.expand(Set, Scratch);
    // Copied, not moved: the entry keeps no slack, Scratch its buffers.
    return Memo->Expansions.emplace_back(Scratch);
  };

  // A branch whose input cube holds no allowed letter is never taken:
  // it is dropped before its target is even created.
  std::unordered_map<uint64_t, bool> CubeAllowed;
  auto Admitted = [&](const Expansion::Branch &B) {
    if (Inputs.size() == AB.inputLetterCount())
      return true;
    auto [It, New] =
        CubeAllowed.try_emplace(uint64_t(B.InputCare) << 32 | B.InputValue);
    if (New)
      It->second = std::any_of(Inputs.begin(), Inputs.end(), [&](uint32_t In) {
        return (In & B.InputCare) == B.InputValue;
      });
    return It->second;
  };

  {
    std::vector<uint64_t> Initial(SetWords, 0);
    const uint32_t Root = Cl.index(Nnf);
    Initial[Root / 64] |= uint64_t(1) << (Root % 64);
    States.intern(Initial.data());
  }
  std::unordered_map<GeneralizedEdge, uint32_t, EdgeHash> EdgeOf;
  for (uint32_t S = 0; S < States.size(); ++S) {
    if (States.size() > Limits.MaxGeneralizedStates ||
        Edges.size() > MaxTransitions)
      return Abort(false);
    if (Dl.expired())
      return Abort(true);
    FirstEdge.push_back(Edges.size());
    EdgeOf.clear();
    const Expansion &Expanded = Expand(States.set(S));
    for (size_t B = 0; B < Expanded.Branches.size(); ++B) {
      const Expansion::Branch &Br = Expanded.Branches[B];
      if (!Admitted(Br))
        continue;
      const uint64_t *Next = &Expanded.Words[B * BranchWords];
      const uint64_t *Outputs = Next + SetWords;
      const GeneralizedEdge E{Br.Defer, States.intern(Next).first,
                              Br.InputCare, Br.InputValue};
      auto [It, New] =
          EdgeOf.try_emplace(E, static_cast<uint32_t>(Edges.size()));
      if (New) {
        Edges.push_back(E);
        Masks.insert(Masks.end(), Outputs, Outputs + OutputWords);
        continue;
      }
      uint64_t *Into = &Masks[It->second * OutputWords];
      for (size_t W = 0; W < OutputWords; ++W)
        Into[W] |= Outputs[W];
    }
  }
  FirstEdge.push_back(Edges.size());
  const uint32_t GeneralizedStates = States.size();
  if (Stats)
    Stats->GeneralizedStates = GeneralizedStates;

  // Degeneralize: NBA state = (generalized state, level). From level j,
  // the level advances past every acceptance set satisfied in order; a
  // transition that completes the round is Buechi-accepting. Edges that
  // merge here (different defer masks, same level) already share a
  // target, so NBA states are numbered as if every branch were its own
  // transition. NbaIds[Gen * Levels + Level] is the NBA state's id.
  Nba Result(OutputWords);
  Result.setInputs(std::move(Inputs));
  const size_t Levels = std::max<size_t>(K, 1);
  constexpr uint32_t Unnumbered = UINT32_MAX;
  std::vector<uint32_t> NbaIds(GeneralizedStates * Levels, Unnumbered);
  std::vector<size_t> Pending;
  auto GetNbaState = [&](uint32_t Gen, unsigned Level) {
    const size_t Key = Gen * Levels + Level;
    if (NbaIds[Key] == Unnumbered) {
      NbaIds[Key] = Result.addState();
      Pending.push_back(Key);
    }
    return NbaIds[Key];
  };

  Result.setInitial(GetNbaState(0, 0));
  size_t EdgeCount = 0;
  while (!Pending.empty()) {
    if (Dl.expired())
      return Abort(true);
    const size_t Key = Pending.back();
    Pending.pop_back();
    const size_t Gen = Key / Levels;
    const unsigned Level = static_cast<unsigned>(Key % Levels);
    const uint32_t From = NbaIds[Key];
    for (size_t I = FirstEdge[Gen]; I < FirstEdge[Gen + 1]; ++I) {
      const GeneralizedEdge &E = Edges[I];
      unsigned NewLevel = Level;
      // Acceptance set i is satisfied by transitions that do NOT defer
      // formula i.
      while (NewLevel < K && !(E.DeferMask & (uint64_t(1) << NewLevel)))
        ++NewLevel;
      bool Accepting = NewLevel == K;
      if (Accepting)
        NewLevel = 0;
      uint32_t To = GetNbaState(E.Target, NewLevel);
      if (Result.addEdge(From, {To, Accepting, E.InputCare, E.InputValue},
                         &Masks[I * OutputWords]) &&
          ++EdgeCount > MaxTransitions)
        return Abort(false);
    }
  }

  // Edges into states that can no longer cross an accepting edge are
  // read by neither consumer: drop them here, once.
  const size_t Live = Result.dropDeadEdges();
  if (Stats) {
    Stats->NbaStates = Result.stateCount();
    Stats->NbaTransitions = Live;
  }
  return Result;
}

std::optional<bool> temos::isSatisfiable(const Formula *F, Context &Ctx,
                                         const Alphabet &AB,
                                         const Deadline &Dl,
                                         const TableauLimits &Limits) {
  TableauStats Stats;
  Nba A = buildNba(F, Ctx, AB, &Stats, Limits, nullptr, Dl);
  if (Stats.BudgetExceeded)
    return std::nullopt;
  return A.isNonEmpty();
}
