//===- automata/Tableau.cpp - LTL tableau construction ---------------------===//

#include "automata/Tableau.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

using namespace temos;

namespace {

/// Transition budget of one construction (exceeded -> BudgetExceeded),
/// checked on the generalized automaton and again on the degeneralized
/// one.
constexpr size_t MaxTransitions = 2000000;

/// A set of formulas ordered by stable id (deterministic across runs).
using FormulaSet = std::vector<const Formula *>;

FormulaSet canonicalize(std::set<const Formula *> Set) {
  FormulaSet Result(Set.begin(), Set.end());
  std::sort(Result.begin(), Result.end(),
            [](const Formula *A, const Formula *B) { return A->id() < B->id(); });
  return Result;
}

std::string setKey(const FormulaSet &Set) {
  std::string Key;
  for (const Formula *F : Set) {
    Key += std::to_string(F->id());
    Key += ',';
  }
  return Key;
}

/// One disjunct of the expansion of a formula set.
struct Branch {
  /// Atoms required now: (atom, polarity).
  std::vector<std::pair<const Formula *, bool>> Literals;
  /// Obligations for the next step.
  std::set<const Formula *> Next;
  /// Until/Finally formulas this branch defers (postpones satisfying).
  /// Kept as formulas rather than acceptance-set bits so an expansion is
  /// meaningful under any top-level formula's acceptance numbering.
  std::vector<const Formula *> Deferred;
};

/// Recursive expansion of a formula worklist into branches. Expansion
/// depends only on the state set itself, never on the surrounding
/// automaton, which is what makes its results cacheable across builds.
class Expander {
public:
  std::vector<Branch> expand(const FormulaSet &State) {
    Branches.clear();
    Branch Initial;
    std::vector<const Formula *> Worklist(State.rbegin(), State.rend());
    std::set<const Formula *> Processed;
    expandRec(Worklist, Processed, Initial);
    return std::move(Branches);
  }

private:
  void expandRec(std::vector<const Formula *> Worklist,
                 std::set<const Formula *> Processed, Branch Current) {
    while (!Worklist.empty()) {
      const Formula *F = Worklist.back();
      Worklist.pop_back();
      if (Processed.count(F))
        continue;
      Processed.insert(F);

      switch (F->kind()) {
      case Formula::Kind::True:
        continue;
      case Formula::Kind::False:
        return; // Dead branch.
      case Formula::Kind::Pred:
      case Formula::Kind::Update:
        if (conflicts(Current, F, true))
          return; // Contradictory branch: prune the whole subtree.
        Current.Literals.emplace_back(F, true);
        continue;
      case Formula::Kind::Not:
        assert(F->child(0)->isAtom() && "tableau input must be in NNF");
        if (conflicts(Current, F->child(0), false))
          return;
        Current.Literals.emplace_back(F->child(0), false);
        continue;
      case Formula::Kind::And:
        for (const Formula *Kid : F->children())
          Worklist.push_back(Kid);
        continue;
      case Formula::Kind::Or: {
        // Branch per disjunct.
        for (const Formula *Kid : F->children()) {
          std::vector<const Formula *> Sub = Worklist;
          Sub.push_back(Kid);
          expandRec(std::move(Sub), Processed, Current);
        }
        return;
      }
      case Formula::Kind::Next:
        Current.Next.insert(F->child(0));
        continue;
      case Formula::Kind::Globally: {
        // G f == f && X G f.
        Worklist.push_back(F->child(0));
        Current.Next.insert(F);
        continue;
      }
      case Formula::Kind::Finally: {
        // F f == f || X F f; the second branch defers.
        {
          std::vector<const Formula *> Sub = Worklist;
          Sub.push_back(F->child(0));
          expandRec(std::move(Sub), Processed, Current);
        }
        Branch Deferred = Current;
        Deferred.Deferred.push_back(F);
        Deferred.Next.insert(F);
        expandRec(std::move(Worklist), std::move(Processed),
                  std::move(Deferred));
        return;
      }
      case Formula::Kind::Until: {
        // a U b == b || (a && X(a U b)); the second branch defers.
        {
          std::vector<const Formula *> Sub = Worklist;
          Sub.push_back(F->rhs());
          expandRec(std::move(Sub), Processed, Current);
        }
        Branch Deferred = Current;
        Deferred.Deferred.push_back(F);
        Deferred.Next.insert(F);
        Worklist.push_back(F->lhs());
        expandRec(std::move(Worklist), std::move(Processed),
                  std::move(Deferred));
        return;
      }
      case Formula::Kind::WeakUntil: {
        // a W b == b || (a && X(a W b)); no acceptance obligation.
        {
          std::vector<const Formula *> Sub = Worklist;
          Sub.push_back(F->rhs());
          expandRec(std::move(Sub), Processed, Current);
        }
        Branch Deferred = Current;
        Deferred.Next.insert(F);
        Worklist.push_back(F->lhs());
        expandRec(std::move(Worklist), std::move(Processed),
                  std::move(Deferred));
        return;
      }
      case Formula::Kind::Release: {
        // a R b == (a && b) || (b && X(a R b)); no acceptance obligation.
        {
          std::vector<const Formula *> Sub = Worklist;
          Sub.push_back(F->lhs());
          Sub.push_back(F->rhs());
          expandRec(std::move(Sub), Processed, Current);
        }
        Branch Deferred = Current;
        Deferred.Next.insert(F);
        Worklist.push_back(F->rhs());
        expandRec(std::move(Worklist), std::move(Processed),
                  std::move(Deferred));
        return;
      }
      case Formula::Kind::Implies:
      case Formula::Kind::Iff:
        assert(false && "tableau input must be in NNF");
        return;
      }
    }
    Branches.push_back(std::move(Current));
  }

  /// Early contradiction detection: pruning at literal-insertion time
  /// avoids expanding the exponentially many dead branches of large
  /// assumption conjunctions.
  bool conflicts(const Branch &Current, const Formula *Atom,
                 bool Positive) const {
    for (const auto &[Existing, ExistingPositive] : Current.Literals) {
      if (Existing == Atom && ExistingPositive != Positive)
        return true;
      // Two different positive updates of the same cell can never fire
      // together (exactly-one semantics).
      if (Positive && ExistingPositive && Atom->is(Formula::Kind::Update) &&
          Existing->is(Formula::Kind::Update) && Existing != Atom &&
          Existing->cell() == Atom->cell())
        return true;
    }
    return false;
  }

  std::vector<Branch> Branches;
};

/// Compiles a branch's literal set into a letter guard. Returns false if
/// the literals are contradictory (the branch is dropped).
bool compileGuard(const std::vector<std::pair<const Formula *, bool>> &Literals,
                  const Alphabet &AB, LetterConstraint &Out) {
  // Per-cell positive choice, if any.
  std::map<int, int> PositiveChoice;
  std::set<std::pair<int, int>> NegativeChoices;

  for (const auto &[Atom, Positive] : Literals) {
    if (Atom->is(Formula::Kind::Pred)) {
      int I = AB.predicateIndex(Atom->pred());
      assert(I >= 0 && "predicate not registered in alphabet");
      uint32_t Bit = uint32_t(1) << I;
      uint32_t Want = Positive ? Bit : 0;
      if ((Out.InputCare & Bit) && (Out.InputValue & Bit) != Want)
        return false;
      Out.InputCare |= Bit;
      Out.InputValue |= Want;
      continue;
    }
    auto [Cell, Option] = AB.updateIndex(Atom);
    assert(Cell >= 0 && "update cell not registered in alphabet");
    if (Option < 0) {
      // The update term is not an available option: a positive literal
      // can never fire; a negative one always holds.
      if (Positive)
        return false;
      continue;
    }
    if (Positive) {
      auto It = PositiveChoice.find(Cell);
      if (It != PositiveChoice.end() && It->second != Option)
        return false; // Two different updates of one cell.
      if (NegativeChoices.count({Cell, Option}))
        return false;
      PositiveChoice[Cell] = Option;
    } else {
      if (PositiveChoice.count(Cell) && PositiveChoice[Cell] == Option)
        return false;
      NegativeChoices.insert({Cell, Option});
    }
  }

  // A cell with every option forbidden is unsatisfiable.
  std::map<int, int> ForbiddenPerCell;
  for (const auto &[Cell, Option] : NegativeChoices) {
    (void)Option;
    ++ForbiddenPerCell[Cell];
  }
  for (const auto &[Cell, Count] : ForbiddenPerCell) {
    if (PositiveChoice.count(Cell))
      continue;
    if (static_cast<size_t>(Count) >= AB.cells()[Cell].Options.size())
      return false;
  }

  for (const auto &[Cell, Option] : PositiveChoice)
    Out.Updates.push_back({static_cast<uint16_t>(Cell),
                           static_cast<uint16_t>(Option), true});
  for (const auto &[Cell, Option] : NegativeChoices) {
    if (PositiveChoice.count(Cell))
      continue; // Implied by the positive requirement.
    Out.Updates.push_back({static_cast<uint16_t>(Cell),
                           static_cast<uint16_t>(Option), false});
  }
  return true;
}

/// Collects Until/Finally subformulas (the generalized acceptance sets).
void collectAcceptanceFormulas(const Formula *F,
                               std::vector<const Formula *> &Out,
                               std::set<const Formula *> &Seen) {
  if (!Seen.insert(F).second)
    return;
  if (F->is(Formula::Kind::Until) || F->is(Formula::Kind::Finally))
    if (std::find(Out.begin(), Out.end(), F) == Out.end())
      Out.push_back(F);
  for (const Formula *Kid : F->children())
    collectAcceptanceFormulas(Kid, Out, Seen);
}

/// The cacheable unit of per-state work: a branch with its guard already
/// compiled (contradictory guards dropped) and its successor obligation
/// set canonicalized. Everything here is independent of the top-level
/// formula and of state numbering.
struct CompiledBranch {
  LetterConstraint Guard;
  FormulaSet Next;
  std::vector<const Formula *> Deferred;
};

} // namespace

struct TableauCache::Impl {
  /// Keeps the memo from growing without bound on open-ended workloads;
  /// comfortably above the working set of the bundled benchmarks. Hit
  /// once, the whole map is dropped (deterministic, and far simpler
  /// than LRU for entries that are cheap to recompute).
  static constexpr size_t MaxEntries = size_t(1) << 16;

  std::unordered_map<std::string, std::vector<CompiledBranch>> Expansions;
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
  const Formula *Nnf = Ctx.Formulas.toNNF(F);

  std::vector<const Formula *> AcceptanceFormulas;
  {
    std::set<const Formula *> Seen;
    collectAcceptanceFormulas(Nnf, AcceptanceFormulas, Seen);
  }
  const size_t K = AcceptanceFormulas.size();
  assert(K <= 64 && "too many acceptance sets");

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

  Expander Exp;

  // Generalized automaton: states are obligation sets; expansion is
  // memoized per state.
  struct GeneralizedTransition {
    LetterConstraint Guard;
    uint32_t Target = 0;
    uint64_t DeferMask = 0;
  };
  std::unordered_map<std::string, uint32_t> StateIds;
  std::vector<FormulaSet> StateSets;
  std::vector<std::vector<GeneralizedTransition>> Transitions;

  auto GetState = [&](const FormulaSet &Set) {
    std::string Key = setKey(Set);
    auto It = StateIds.find(Key);
    if (It != StateIds.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(StateSets.size());
    StateIds.emplace(std::move(Key), Id);
    StateSets.push_back(Set);
    Transitions.emplace_back();
    return Id;
  };

  // Key for duplicate-transition suppression: expansion of large
  // conjunctions produces many branches that compile to the same
  // (guard, target, defer) triple.
  auto TransitionKey = [](const LetterConstraint &G, uint32_t Target,
                          uint64_t Defer) {
    std::string Key = std::to_string(G.InputCare) + "/" +
                      std::to_string(G.InputValue) + "/";
    for (const LetterConstraint::UpdateReq &R : G.Updates)
      Key += std::to_string(R.Cell) + ":" + std::to_string(R.Option) +
             (R.Positive ? "+" : "-") + ",";
    Key += "@" + std::to_string(Target) + "#" + std::to_string(Defer);
    return Key;
  };

  // Expansion + guard compilation for one state, cache-aware. The
  // returned reference points into the cache (stable: entries are never
  // mutated after insertion) or into Scratch for uncached builds.
  const std::string SigKey = Cache ? AB.signatureKey() : std::string();
  std::vector<CompiledBranch> Scratch;
  auto ExpandCompiled =
      [&](const FormulaSet &Set) -> const std::vector<CompiledBranch> & {
    std::string Key;
    if (Cache) {
      Key = SigKey + "|" + setKey(Set);
      auto It = Cache->I->Expansions.find(Key);
      if (It != Cache->I->Expansions.end()) {
        ++Cache->I->Hits;
        return It->second;
      }
      ++Cache->I->Misses;
    }
    Scratch.clear();
    for (Branch &B : Exp.expand(Set)) {
      LetterConstraint Guard;
      if (!compileGuard(B.Literals, AB, Guard))
        continue;
      Scratch.push_back({std::move(Guard), canonicalize(std::move(B.Next)),
                         std::move(B.Deferred)});
    }
    if (!Cache)
      return Scratch;
    if (Cache->I->Expansions.size() >= TableauCache::Impl::MaxEntries)
      Cache->I->Expansions.clear();
    return Cache->I->Expansions.emplace(std::move(Key), std::move(Scratch))
        .first->second;
  };

  uint32_t InitialGen = GetState(canonicalize({Nnf}));
  size_t TotalTransitions = 0;
  for (uint32_t S = 0; S < StateSets.size(); ++S) {
    if (StateSets.size() > Limits.MaxGeneralizedStates ||
        TotalTransitions > MaxTransitions) {
      if (Stats)
        Stats->BudgetExceeded = true;
      return Nba();
    }
    if (Dl.expired()) {
      if (Stats) {
        Stats->BudgetExceeded = true;
        Stats->TimedOut = true;
      }
      return Nba();
    }
    const std::vector<CompiledBranch> &Branches = ExpandCompiled(StateSets[S]);
    std::set<std::string> Seen;
    for (const CompiledBranch &B : Branches) {
      uint64_t DeferMask = 0;
      for (const Formula *D : B.Deferred)
        if (int Acc = acceptanceIndex(D); Acc >= 0)
          DeferMask |= uint64_t(1) << Acc;
      uint32_t Target = GetState(B.Next);
      if (!Seen.insert(TransitionKey(B.Guard, Target, DeferMask)).second)
        continue;
      Transitions[S].push_back({B.Guard, Target, DeferMask});
      ++TotalTransitions;
    }
  }

  if (Stats) {
    Stats->GeneralizedStates = StateSets.size();
    Stats->AcceptanceSets = K;
  }

  // Degeneralize: NBA state = (generalized state, level). From level j,
  // the level advances past every acceptance set satisfied in order; a
  // transition that completes the round is Buechi-accepting.
  Nba Result;
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
  size_t TransitionCount = 0;
  while (!Pending.empty()) {
    if (Dl.expired()) {
      if (Stats) {
        Stats->BudgetExceeded = true;
        Stats->TimedOut = true;
      }
      return Nba();
    }
    auto [Gen, Level] = Pending.back();
    Pending.pop_back();
    uint32_t From = NbaIds.at({Gen, Level});
    for (const GeneralizedTransition &T : Transitions[Gen]) {
      unsigned NewLevel = Level;
      // Acceptance set i is satisfied by transitions that do NOT defer
      // formula i.
      while (NewLevel < K && !(T.DeferMask & (uint64_t(1) << NewLevel)))
        ++NewLevel;
      bool Accepting = NewLevel == K;
      if (Accepting)
        NewLevel = 0;
      uint32_t To = GetNbaState(T.Target, NewLevel);
      Result.addTransition(From, {T.Guard, To, Accepting});
      ++TransitionCount;
      if (TransitionCount > MaxTransitions) {
        if (Stats)
          Stats->BudgetExceeded = true;
        return Nba();
      }
    }
  }

  if (Stats) {
    Stats->NbaStates = Result.stateCount();
    Stats->NbaTransitions = TransitionCount;
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
  return A.isNonEmpty(AB);
}
