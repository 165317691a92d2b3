//===- core/ConsistencyChecker.cpp - Consistency checking (4.2) ------------===//

#include "core/ConsistencyChecker.h"

#include <algorithm>
#include <atomic>
#include <mutex>

using namespace temos;

namespace {

/// Shared store of unsatisfiable literal combinations, as bitmasks over
/// a fixed predicate numbering. Workers publish cores as they find them
/// and consult the store to skip supersets whose verdict is implied.
class UnsatCoreStore {
public:
  void publish(uint32_t Mask) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Cores.push_back(Mask);
  }

  /// True if some published core is a subset of \p Mask (the mask's
  /// unsatisfiability is already implied).
  bool subsumes(uint32_t Mask) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (uint32_t Core : Cores)
      if ((Mask & Core) == Core)
        return true;
    return false;
  }

private:
  mutable std::mutex Mutex;
  std::vector<uint32_t> Cores;
};

/// Builds the positive literal vector selected by \p Mask.
std::vector<TheoryLiteral>
maskLiterals(uint32_t Mask, const std::vector<const Term *> &Predicates) {
  std::vector<TheoryLiteral> Literals;
  for (size_t I = 0; I < Predicates.size(); ++I)
    if (Mask & (uint32_t(1) << I))
      Literals.push_back({Predicates[I], true});
  return Literals;
}

/// Emits the assumption G !(p1 && ... && pk) for an unsat combination.
const Formula *maskAssumption(uint32_t Mask,
                              const std::vector<const Term *> &Predicates,
                              Context &Ctx) {
  std::vector<const Formula *> Conjuncts;
  for (const TheoryLiteral &L : maskLiterals(Mask, Predicates))
    Conjuncts.push_back(Ctx.Formulas.pred(L.Atom));
  return Ctx.Formulas.globally(
      Ctx.Formulas.notF(Ctx.Formulas.andF(std::move(Conjuncts))));
}

/// All masks over \p N bits with popcount in [1, MaxSize], ordered by
/// (popcount, value) -- the order the serial algorithm visits them in.
std::vector<uint32_t> candidateMasks(size_t N, unsigned MaxSize) {
  std::vector<uint32_t> Masks;
  for (unsigned Size = 1; Size <= std::min<size_t>(MaxSize, N); ++Size) {
    // Gosper's hack: next mask with the same popcount, ascending.
    uint32_t Mask = (uint32_t(1) << Size) - 1;
    uint32_t Limit = uint32_t(1) << N;
    while (Mask < Limit) {
      Masks.push_back(Mask);
      uint32_t Lowest = Mask & (~Mask + 1);
      uint32_t Ripple = Mask + Lowest;
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
                              SolverService *Service) {
  ConsistencyResult Result;
  SmtSolver Solver(Th);
  Solver.setDeadline(Options.Dl);
  const size_t N = Predicates.size();

  // Combinations already found unsatisfiable (as bitmasks), used to skip
  // supersets in minimal-core mode.
  std::vector<uint32_t> UnsatMasks;

  // Enumerate subsets by increasing size so minimal cores are found
  // before their supersets.
  for (uint32_t Mask : candidateMasks(N, Options.MaxSubsetSize)) {
    if (Options.MinimalCoresOnly) {
      bool Subsumed = false;
      for (uint32_t Core : UnsatMasks)
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
    if (Options.Dl.expired()) {
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
                                SolverService &Service) {
  ConsistencyResult Result;
  const std::vector<uint32_t> Masks =
      candidateMasks(Predicates.size(), Options.MaxSubsetSize);

  enum class Verdict : int8_t { Skipped, Sat, Unsat, Unknown };
  std::vector<Verdict> Verdicts(Masks.size(), Verdict::Skipped);
  UnsatCoreStore Cores;
  std::atomic<size_t> Queries{0};
  std::atomic<size_t> DeadlineSkipped{0};

  Service.pool().forEach(Masks.size(), [&](size_t I) {
    uint32_t Mask = Masks[I];
    if (Options.MinimalCoresOnly && Cores.subsumes(Mask))
      return; // Verdict stays Skipped.
    // Degraded mode: past the deadline, tasks become no-ops and the
    // post-filter emits whatever the completed checks establish.
    if (Options.Dl.expired()) {
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
  std::vector<uint32_t> Accepted;
  for (size_t I = 0; I < Masks.size(); ++I) {
    if (Verdicts[I] != Verdict::Unsat)
      continue;
    if (Options.MinimalCoresOnly) {
      bool Subsumed = false;
      for (uint32_t Core : Accepted)
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
                        SolverService *Service) {
  if (Predicates.empty())
    return ConsistencyResult();
  assert(Predicates.size() <= 24 &&
         "too many predicates for powerset consistency checking");
  if (Service && Service->pool().workerCount() > 0)
    return checkParallel(Predicates, Ctx, Options, *Service);
  return checkSerial(Predicates, Th, Ctx, Options, Service);
}
