//===- automata/Tableau.cpp - LTL tableau construction ---------------------===//

#include "automata/Tableau.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <tuple>

using namespace temos;

namespace {

/// Edge budget of one construction (exceeded -> BudgetExceeded), checked
/// on the merged edges of the generalized automaton and again on those
/// of the degeneralized one.
constexpr size_t MaxTransitions = 2000000;

/// A set of formulas ordered by stable id (deterministic across runs).
using FormulaSet = std::vector<const Formula *>;

/// Adds \p F to the id-ordered \p Set; false if it was already there.
bool insertById(FormulaSet &Set, const Formula *F) {
  auto It = std::lower_bound(
      Set.begin(), Set.end(), F,
      [](const Formula *A, const Formula *B) { return A->id() < B->id(); });
  if (It != Set.end() && *It == F)
    return false;
  Set.insert(It, F);
  return true;
}

/// One alternative of an expansion law: the formulas that must hold now,
/// the obligation for the next step (if any), and whether it postpones
/// the eventuality being expanded.
struct Alternative {
  std::span<const Formula *const> Now;
  const Formula *Next = nullptr;
  bool Defers = false;
};

/// The expansion laws of the NNF connectives, one alternative per
/// disjunct, in the order the expander explores them:
///
///   f && g : f, g                  f || g : f  |  g
///   X f    : next f                G f    : f, next G f
///   F f    : f  |  next F f (d)     a U b  : b  |  a, next a U b (d)
///   a W b  : b  |  a, next a W b    a R b  : a, b  |  b, next a R b
///
/// (d) marks the alternative that defers an eventuality. True has one
/// empty alternative and False none. Literals have no law: the expander
/// compiles them into the branch's input cube and letter mask.
std::vector<Alternative> expansionLaw(const Formula *F) {
  const std::span<const Formula *const> Kids = F->children();
  switch (F->kind()) {
  case Formula::Kind::True:
    return {Alternative{}};
  case Formula::Kind::False:
    return {};
  case Formula::Kind::And:
    return {{Kids}};
  case Formula::Kind::Or: {
    std::vector<Alternative> Alts;
    for (size_t I = 0; I < Kids.size(); ++I)
      Alts.push_back({Kids.subspan(I, 1)});
    return Alts;
  }
  case Formula::Kind::Next:
    return {{{}, F->child(0)}};
  case Formula::Kind::Globally:
    return {{Kids, F}};
  case Formula::Kind::Finally:
    return {{Kids}, {{}, F, true}};
  case Formula::Kind::Until:
    return {{Kids.subspan(1)}, {Kids.first(1), F, true}};
  case Formula::Kind::WeakUntil:
    return {{Kids.subspan(1)}, {Kids.first(1), F}};
  case Formula::Kind::Release:
    return {{Kids}, {Kids.subspan(1), F}};
  case Formula::Kind::Pred:
  case Formula::Kind::Update:
  case Formula::Kind::Not:
  case Formula::Kind::Implies:
  case Formula::Kind::Iff:
    break;
  }
  assert(false && "no expansion law: a literal, or not in NNF");
  return {};
}

/// One machine word per 64 output letters: bit O % 64 of word O / 64
/// stands for output letter O.
using LetterMask = std::vector<uint64_t>;

/// One disjunct of a state's expansion, which is also the cached unit of
/// per-state work: the input cube and output letters its literals
/// compile to, the obligations for the next step, and the Until/Finally
/// formulas it defers. Deferred formulas stay formulas rather than
/// acceptance-set bits, so a branch means the same under any top-level
/// formula's acceptance numbering.
struct Branch {
  uint32_t InputCare = 0;
  uint32_t InputValue = 0;
  LetterMask Outputs;
  FormulaSet Next;
  std::vector<const Formula *> Deferred;
};

/// Expands a state's formula set into its branches. Expansion depends
/// only on the state set and the alphabet, never on the surrounding
/// automaton, which is what makes its results cacheable across builds.
class Expander {
public:
  explicit Expander(const Alphabet &AB)
      : AB(AB), AllLetters((AB.outputLetterCount() + 63) / 64) {
    OptionLetters.resize(AB.cells().size());
    for (size_t C = 0; C < AB.cells().size(); ++C)
      OptionLetters[C].assign(AB.cells()[C].Options.size(),
                              LetterMask(AllLetters.size()));
    for (uint32_t O = 0; O < AB.outputLetterCount(); ++O) {
      const std::vector<unsigned> Choices = AB.decodeOutput(O);
      for (size_t C = 0; C < Choices.size(); ++C)
        OptionLetters[C][Choices[C]][O / 64] |= uint64_t(1) << (O % 64);
      AllLetters[O / 64] |= uint64_t(1) << (O % 64);
    }
  }

  std::vector<Branch> expand(const FormulaSet &State) {
    Branches.clear();
    Frame Fr{FormulaSet(State.rbegin(), State.rend()), {}, {}};
    Fr.B.Outputs = AllLetters;
    expandRec(std::move(Fr));
    return std::move(Branches);
  }

private:
  /// A branch under construction: the formulas still to expand (popped
  /// from the back) and those already expanded.
  struct Frame {
    std::vector<const Formula *> Worklist;
    FormulaSet Processed;
    Branch B;
  };

  void expandRec(Frame Fr) {
    while (!Fr.Worklist.empty()) {
      const Formula *F = Fr.Worklist.back();
      Fr.Worklist.pop_back();
      if (!insertById(Fr.Processed, F))
        continue;
      if (F->is(Formula::Kind::Pred) || F->is(Formula::Kind::Update) ||
          F->is(Formula::Kind::Not)) {
        // Pruning at the first contradiction spares the exponentially
        // many dead branches of large assumption conjunctions.
        if (!addLiteral(Fr.B, F))
          return;
        continue;
      }
      const std::vector<Alternative> Alts = expansionLaw(F);
      if (Alts.empty())
        return; // Dead branch.
      // The one place a branch splits: every alternative but the last
      // continues in a copy, the last one in place.
      for (size_t I = 0; I + 1 < Alts.size(); ++I) {
        Frame Fork = Fr;
        apply(Fork, F, Alts[I]);
        expandRec(std::move(Fork));
      }
      apply(Fr, F, Alts.back());
    }
    // Branches outlive the expansion (TableauCache keeps every one):
    // drop the slack the sorted inserts grew into the next-state set.
    Fr.B.Next.shrink_to_fit();
    Branches.push_back(std::move(Fr.B));
  }

  static void apply(Frame &Fr, const Formula *F, const Alternative &Alt) {
    Fr.Worklist.insert(Fr.Worklist.end(), Alt.Now.begin(), Alt.Now.end());
    if (Alt.Next)
      insertById(Fr.B.Next, Alt.Next);
    if (Alt.Defers)
      Fr.B.Deferred.push_back(F);
  }

  /// Compiles a literal into \p B: a predicate fixes an input bit, an
  /// update keeps the output letters that choose its option (or, negated,
  /// those that do not). False on a contradiction: a clash on an input
  /// bit, or no output letter left.
  bool addLiteral(Branch &B, const Formula *Literal) const {
    const bool Positive = !Literal->is(Formula::Kind::Not);
    const Formula *Atom = Positive ? Literal : Literal->child(0);
    if (Atom->is(Formula::Kind::Pred)) {
      int I = AB.predicateIndex(Atom->pred());
      assert(I >= 0 && "predicate not registered in alphabet");
      const uint32_t Bit = uint32_t(1) << I;
      const uint32_t Want = Positive ? Bit : 0;
      if ((B.InputCare & Bit) && (B.InputValue & Bit) != Want)
        return false;
      B.InputCare |= Bit;
      B.InputValue |= Want;
      return true;
    }
    assert(Atom->is(Formula::Kind::Update) && "tableau input must be in NNF");
    auto [Cell, Option] = AB.updateIndex(Atom);
    assert(Cell >= 0 && "update cell not registered in alphabet");
    // An update term that is not an available option never fires: a
    // positive literal is unsatisfiable, a negative one always holds.
    if (Option < 0)
      return !Positive;
    const LetterMask &Chooses = OptionLetters[Cell][Option];
    uint64_t Any = 0;
    for (size_t W = 0; W < B.Outputs.size(); ++W) {
      B.Outputs[W] &= Positive ? Chooses[W] : ~Chooses[W];
      Any |= B.Outputs[W];
    }
    return Any != 0;
  }

  const Alphabet &AB;
  /// Every output letter, and per [cell][option] the letters choosing
  /// that option.
  LetterMask AllLetters;
  std::vector<std::vector<LetterMask>> OptionLetters;
  std::vector<Branch> Branches;
};

/// Collects Until/Finally subformulas (the generalized acceptance sets).
void collectAcceptanceFormulas(const Formula *F,
                               std::vector<const Formula *> &Out,
                               std::set<const Formula *> &Seen) {
  if (!Seen.insert(F).second)
    return;
  if (F->is(Formula::Kind::Until) || F->is(Formula::Kind::Finally))
    Out.push_back(F);
  for (const Formula *Kid : F->children())
    collectAcceptanceFormulas(Kid, Out, Seen);
}

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
  /// once, the whole map is dropped (deterministic, and far simpler
  /// than LRU for entries that are cheap to recompute).
  static constexpr size_t MaxEntries = size_t(1) << 16;

  /// Keyed by (alphabet signature, state set): cubes and masks compile
  /// against the alphabet's bit and letter indices.
  std::map<std::pair<std::string, FormulaSet>, std::vector<Branch>> Expansions;
  size_t Hits = 0;
  size_t Misses = 0;
};

TableauCache::TableauCache() : I(new Impl) {}
TableauCache::~TableauCache() = default;
size_t TableauCache::hits() const { return I->Hits; }
size_t TableauCache::misses() const { return I->Misses; }
size_t TableauCache::size() const { return I->Expansions.size(); }
void TableauCache::clear() {
  I->Expansions.clear();
  I->Hits = I->Misses = 0;
}

Nba temos::buildNba(const Formula *F, Context &Ctx, const Alphabet &AB,
                    TableauStats *Stats, const TableauLimits &Limits,
                    TableauCache *Cache, const Deadline &Dl) {
  std::vector<uint32_t> Inputs;
  const Formula *Nnf =
      peelInputInvariants(Ctx.Formulas.toNNF(F), Ctx, AB, Inputs);

  std::vector<const Formula *> AcceptanceFormulas;
  {
    std::set<const Formula *> Seen;
    collectAcceptanceFormulas(Nnf, AcceptanceFormulas, Seen);
  }
  const size_t K = AcceptanceFormulas.size();
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

  // Position of a deferred formula in this build's acceptance numbering.
  // Cached expansions may come from a different top-level formula, but a
  // deferred formula is always a subformula of its state set and the
  // state set is in the current formula's closure, so the lookup finds
  // it whenever the acceptance machinery needs it.
  auto acceptanceIndex = [&](const Formula *G) {
    for (size_t I = 0; I < AcceptanceFormulas.size(); ++I)
      if (AcceptanceFormulas[I] == G)
        return static_cast<int>(I);
    return -1;
  };

  // Generalized automaton: states are obligation sets, numbered in
  // discovery order. A state's branches merge into one edge per (target,
  // defer mask, input cube) whose output letters are the union of theirs.
  struct GeneralizedEdge {
    uint32_t Target = 0;
    uint64_t DeferMask = 0;
    uint32_t InputCare = 0;
    uint32_t InputValue = 0;
    LetterMask Outputs;
  };
  std::map<FormulaSet, uint32_t> StateIds;
  std::vector<const FormulaSet *> StateSets;
  std::vector<std::vector<GeneralizedEdge>> Edges;

  auto GetState = [&](const FormulaSet &Set) {
    auto [It, Inserted] =
        StateIds.try_emplace(Set, static_cast<uint32_t>(StateSets.size()));
    if (Inserted) {
      StateSets.push_back(&It->first);
      Edges.emplace_back();
    }
    return It->second;
  };

  // One state's branches, cache-aware. The returned reference points
  // into the cache (entries are never mutated after insertion) or into
  // Scratch for uncached builds.
  Expander Exp(AB);
  const std::string SigKey = Cache ? AB.signatureKey() : std::string();
  std::vector<Branch> Scratch;
  auto Expand = [&](const FormulaSet &Set) -> const std::vector<Branch> & {
    if (!Cache)
      return Scratch = Exp.expand(Set);
    TableauCache::Impl &C = *Cache->I;
    std::pair<std::string, FormulaSet> Key(SigKey, Set);
    if (auto It = C.Expansions.find(Key); It != C.Expansions.end()) {
      ++C.Hits;
      return It->second;
    }
    ++C.Misses;
    if (C.Expansions.size() >= TableauCache::Impl::MaxEntries)
      C.Expansions.clear();
    return C.Expansions.emplace(std::move(Key), Exp.expand(Set))
        .first->second;
  };

  // A branch whose input cube holds no allowed letter is never taken:
  // it is dropped before its target is even created.
  std::map<std::pair<uint32_t, uint32_t>, bool> CubeAllowed;
  auto Admitted = [&](const Branch &B) {
    if (Inputs.size() == AB.inputLetterCount())
      return true;
    auto [It, New] =
        CubeAllowed.try_emplace({B.InputCare, B.InputValue}, false);
    if (New)
      It->second = std::any_of(Inputs.begin(), Inputs.end(), [&](uint32_t In) {
        return (In & B.InputCare) == B.InputValue;
      });
    return It->second;
  };

  uint32_t InitialGen = GetState({Nnf});
  size_t TotalEdges = 0;
  std::map<std::tuple<uint32_t, uint64_t, uint32_t, uint32_t>, size_t> EdgeOf;
  for (uint32_t S = 0; S < StateSets.size(); ++S) {
    if (StateSets.size() > Limits.MaxGeneralizedStates ||
        TotalEdges > MaxTransitions)
      return Abort(false);
    if (Dl.expired())
      return Abort(true);
    EdgeOf.clear();
    for (const Branch &B : Expand(*StateSets[S])) {
      if (!Admitted(B))
        continue;
      uint64_t DeferMask = 0;
      for (const Formula *D : B.Deferred)
        if (int Acc = acceptanceIndex(D); Acc >= 0)
          DeferMask |= uint64_t(1) << Acc;
      const uint32_t Target = GetState(B.Next);
      auto [It, New] = EdgeOf.try_emplace(
          {Target, DeferMask, B.InputCare, B.InputValue}, Edges[S].size());
      if (New) {
        Edges[S].push_back(
            {Target, DeferMask, B.InputCare, B.InputValue, B.Outputs});
        ++TotalEdges;
        continue;
      }
      LetterMask &Outputs = Edges[S][It->second].Outputs;
      for (size_t W = 0; W < Outputs.size(); ++W)
        Outputs[W] |= B.Outputs[W];
    }
  }

  if (Stats)
    Stats->GeneralizedStates = StateSets.size();

  // Degeneralize: NBA state = (generalized state, level). From level j,
  // the level advances past every acceptance set satisfied in order; a
  // transition that completes the round is Buechi-accepting. Edges that
  // merge here (different defer masks, same level) already share a
  // target, so NBA states are numbered as if every branch were its own
  // transition.
  Nba Result((AB.outputLetterCount() + 63) / 64);
  Result.setInputs(std::move(Inputs));
  std::map<std::pair<uint32_t, unsigned>, uint32_t> NbaIds;
  std::vector<std::pair<uint32_t, unsigned>> Pending;
  auto GetNbaState = [&](uint32_t Gen, unsigned Level) {
    auto Key = std::make_pair(Gen, Level);
    auto It = NbaIds.find(Key);
    if (It != NbaIds.end())
      return It->second;
    uint32_t Id = Result.addState();
    NbaIds.emplace(Key, Id);
    Pending.push_back(Key);
    return Id;
  };

  uint32_t InitialNba = GetNbaState(InitialGen, 0);
  Result.setInitial(InitialNba);
  size_t EdgeCount = 0;
  while (!Pending.empty()) {
    if (Dl.expired())
      return Abort(true);
    auto [Gen, Level] = Pending.back();
    Pending.pop_back();
    uint32_t From = NbaIds.at({Gen, Level});
    for (const GeneralizedEdge &E : Edges[Gen]) {
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
                         E.Outputs.data()) &&
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
