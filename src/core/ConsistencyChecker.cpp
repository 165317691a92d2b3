//===- core/ConsistencyChecker.cpp - Consistency checking (4.2) ------------===//

#include "core/ConsistencyChecker.h"

#include <algorithm>
#include <atomic>
#include <mutex>

using namespace temos;

namespace {

/// A literal combination as a bitmask over a fixed numbering: bit 2i
/// stands for predicate i, bit 2i + 1 for its negation.
using LiteralMask = uint64_t;

/// Shared store of unsatisfiable literal combinations. Workers publish
/// cores as they find them and consult the store to skip supersets
/// whose verdict is implied.
class UnsatCoreStore {
public:
  void publish(LiteralMask Mask) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Cores.push_back(Mask);
  }

  /// True if some published core is a subset of \p Mask (the mask's
  /// unsatisfiability is already implied).
  bool subsumes(LiteralMask Mask) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (LiteralMask Core : Cores)
      if ((Mask & Core) == Core)
        return true;
    return false;
  }

private:
  mutable std::mutex Mutex;
  std::vector<LiteralMask> Cores;
};

/// Builds the literal vector selected by \p Mask.
std::vector<TheoryLiteral>
maskLiterals(LiteralMask Mask, const std::vector<const Term *> &Predicates) {
  std::vector<TheoryLiteral> Literals;
  for (size_t I = 0; I < 2 * Predicates.size(); ++I)
    if (Mask & (LiteralMask(1) << I))
      Literals.push_back({Predicates[I / 2], I % 2 == 0});
  return Literals;
}

/// Emits the assumption G !(l1 && ... && lk) for an unsat combination
/// (the factory folds a core {!p} to G p).
const Formula *maskAssumption(LiteralMask Mask,
                              const std::vector<const Term *> &Predicates,
                              Context &Ctx) {
  std::vector<const Formula *> Conjuncts;
  for (const TheoryLiteral &L : maskLiterals(Mask, Predicates)) {
    const Formula *Atom = Ctx.Formulas.pred(L.Atom);
    Conjuncts.push_back(L.Positive ? Atom : Ctx.Formulas.notF(Atom));
  }
  return Ctx.Formulas.globally(
      Ctx.Formulas.notF(Ctx.Formulas.andF(std::move(Conjuncts))));
}

/// All literal combinations over \p N predicates with [1, MaxSize]
/// literals and no predicate in both polarities, ordered by (size,
/// value) -- the order the serial algorithm visits them in.
std::vector<LiteralMask> candidateMasks(size_t N, unsigned MaxSize) {
  // Every predicate's odd (negative) bit. A mask holds both literals of
  // a predicate when Mask << 1 moves a set even bit onto a set odd one.
  LiteralMask Negatives = 0;
  for (size_t I = 0; I < N; ++I)
    Negatives |= LiteralMask(2) << (2 * I);
  std::vector<LiteralMask> Masks;
  for (unsigned Size = 1; Size <= std::min<size_t>(MaxSize, N); ++Size) {
    // Gosper's hack: next mask with the same popcount, ascending.
    LiteralMask Mask = (LiteralMask(1) << Size) - 1;
    const LiteralMask Limit = LiteralMask(1) << (2 * N);
    while (Mask < Limit) {
      if (!(Mask & (Mask << 1) & Negatives))
        Masks.push_back(Mask);
      LiteralMask Lowest = Mask & (~Mask + 1);
      LiteralMask Ripple = Mask + Lowest;
      Mask = Ripple | (((Mask ^ Ripple) >> 2) / Lowest);
    }
  }
  return Masks;
}

/// The serial Sec. 4.2 sweep, optionally routing queries through a
/// service for memoization. This is the reference semantics the
/// parallel path reproduces.
ConsistencyResult checkSerial(const std::vector<const Term *> &Predicates,
                              Theory Th, Context &Ctx,
                              const ConsistencyOptions &Options,
                              SolverService *Service, const Deadline &Dl) {
  ConsistencyResult Result;
  SmtSolver Solver(Th);
  Solver.setDeadline(Dl);
  const size_t N = Predicates.size();

  // Combinations already found unsatisfiable (as bitmasks), used to skip
  // supersets in minimal-core mode.
  std::vector<LiteralMask> UnsatMasks;

  // Enumerate subsets by increasing size so minimal cores are found
  // before their supersets.
  for (LiteralMask Mask : candidateMasks(N, Options.MaxSubsetSize)) {
    if (Options.MinimalCoresOnly) {
      bool Subsumed = false;
      for (LiteralMask Core : UnsatMasks)
        if ((Mask & Core) == Core) {
          Subsumed = true;
          break;
        }
      if (Subsumed)
        continue;
    }

    // Degrade gracefully on deadline expiry: skip the remaining
    // combinations but keep everything found so far (each emitted
    // assumption is individually valid).
    if (Dl.expired()) {
      ++Result.DeadlineSkipped;
      continue;
    }

    std::vector<TheoryLiteral> Literals = maskLiterals(Mask, Predicates);
    ++Result.SolverQueries;
    SatResult R;
    try {
      R = Service ? Service->checkLiterals(Literals)
                  : Solver.checkLiterals(Literals);
    } catch (const DeadlineExpired &) {
      ++Result.DeadlineSkipped;
      continue;
    }
    if (R != SatResult::Unsat)
      continue;

    UnsatMasks.push_back(Mask);
    Result.Assumptions.push_back(maskAssumption(Mask, Predicates, Ctx));
  }
  return Result;
}

/// Parallel sweep: fan every candidate subset out across the service's
/// pool, with opportunistic superset pruning through a shared core
/// store, then replay the serial acceptance order over the verdicts.
///
/// Determinism argument: a mask is only skipped when a published unsat
/// core is a *proper* subset (equal-size masks cannot subsume each
/// other and a mask cannot be in the store before its own check), so
/// every *minimal* unsat mask is always queried, whatever the
/// interleaving. The post-filter accepts exactly the unsat masks with
/// no accepted proper subset, which is precisely the set of minimal
/// unsat masks -- the same set the serial sweep emits -- visited in the
/// same (size, value) order. Formula construction stays on the calling
/// thread.
ConsistencyResult checkParallel(const std::vector<const Term *> &Predicates,
                                Context &Ctx,
                                const ConsistencyOptions &Options,
                                SolverService &Service, const Deadline &Dl) {
  ConsistencyResult Result;
  const std::vector<LiteralMask> Masks =
      candidateMasks(Predicates.size(), Options.MaxSubsetSize);

  enum class Verdict : int8_t { Skipped, Sat, Unsat, Unknown };
  std::vector<Verdict> Verdicts(Masks.size(), Verdict::Skipped);
  UnsatCoreStore Cores;
  std::atomic<size_t> Queries{0};
  std::atomic<size_t> DeadlineSkipped{0};

  Service.pool().forEach(Masks.size(), [&](size_t I) {
    LiteralMask Mask = Masks[I];
    if (Options.MinimalCoresOnly && Cores.subsumes(Mask))
      return; // Verdict stays Skipped.
    // Degraded mode: past the deadline, tasks become no-ops and the
    // post-filter emits whatever the completed checks establish.
    if (Dl.expired()) {
      DeadlineSkipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Queries.fetch_add(1, std::memory_order_relaxed);
    try {
      switch (Service.checkLiterals(maskLiterals(Mask, Predicates))) {
      case SatResult::Unsat:
        Verdicts[I] = Verdict::Unsat;
        Cores.publish(Mask);
        break;
      case SatResult::Sat:
        Verdicts[I] = Verdict::Sat;
        break;
      case SatResult::Unknown:
        Verdicts[I] = Verdict::Unknown;
        break;
      }
    } catch (const DeadlineExpired &) {
      DeadlineSkipped.fetch_add(1, std::memory_order_relaxed);
    }
  });
  Result.SolverQueries = Queries.load();
  Result.DeadlineSkipped = DeadlineSkipped.load();

  // Deterministic merge: accept in (size, value) order, filtering
  // supersets of accepted cores exactly like the serial sweep.
  std::vector<LiteralMask> Accepted;
  for (size_t I = 0; I < Masks.size(); ++I) {
    if (Verdicts[I] != Verdict::Unsat)
      continue;
    if (Options.MinimalCoresOnly) {
      bool Subsumed = false;
      for (LiteralMask Core : Accepted)
        if ((Masks[I] & Core) == Core) {
          Subsumed = true;
          break;
        }
      if (Subsumed)
        continue;
    }
    Accepted.push_back(Masks[I]);
    Result.Assumptions.push_back(maskAssumption(Masks[I], Predicates, Ctx));
  }
  return Result;
}

} // namespace

ConsistencyResult
temos::checkConsistency(const std::vector<const Term *> &Predicates,
                        Theory Th, Context &Ctx,
                        const ConsistencyOptions &Options,
                        SolverService *Service, const Deadline &Dl) {
  if (Predicates.empty())
    return ConsistencyResult();
  assert(Predicates.size() <= 24 &&
         "too many predicates for powerset consistency checking");
  if (Service && Service->pool().workerCount() > 0)
    return checkParallel(Predicates, Ctx, Options, *Service, Dl);
  return checkSerial(Predicates, Th, Ctx, Options, Service, Dl);
}
