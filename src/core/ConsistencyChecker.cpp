//===- core/ConsistencyChecker.cpp - Consistency checking (4.2) ------------===//

#include "core/ConsistencyChecker.h"

#include <algorithm>
#include <atomic>
#include <bit>

using namespace temos;

namespace {

/// A literal combination as a bitmask over a fixed numbering: bit 2i
/// stands for predicate i, bit 2i + 1 for its negation.
using LiteralMask = uint64_t;

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

/// True if some core in \p Cores is a subset of \p Mask (the mask's
/// unsatisfiability is already implied).
bool subsumed(LiteralMask Mask, const std::vector<LiteralMask> &Cores) {
  return std::any_of(Cores.begin(), Cores.end(), [&](LiteralMask Core) {
    return (Mask & Core) == Core;
  });
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
    if (Options.MinimalCoresOnly && subsumed(Mask, UnsatMasks))
      continue;

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

/// Parallel sweep, level by level: the combinations of one size are
/// checked across the service's pool, then their unsat cores are
/// accepted in (size, value) order before the next size starts. A mask
/// is skipped exactly when a smaller accepted core subsumes it (cores of
/// one size cannot subsume each other), which is the serial sweep's
/// rule, so both sweeps ask the same queries and accept the same cores
/// in the same order. Formula construction stays on the calling thread.
ConsistencyResult checkParallel(const std::vector<const Term *> &Predicates,
                                Context &Ctx,
                                const ConsistencyOptions &Options,
                                SolverService &Service, const Deadline &Dl) {
  ConsistencyResult Result;
  const std::vector<LiteralMask> Masks =
      candidateMasks(Predicates.size(), Options.MaxSubsetSize);
  std::vector<LiteralMask> Cores;

  std::vector<LiteralMask> Level;
  std::vector<uint8_t> Unsat;
  std::atomic<size_t> Queries{0};
  std::atomic<size_t> DeadlineSkipped{0};
  for (size_t Begin = 0; Begin < Masks.size();) {
    const int Size = std::popcount(Masks[Begin]);
    Level.clear();
    size_t End = Begin;
    for (; End < Masks.size() && std::popcount(Masks[End]) == Size; ++End)
      if (!Options.MinimalCoresOnly || !subsumed(Masks[End], Cores))
        Level.push_back(Masks[End]);
    Begin = End;

    Unsat.assign(Level.size(), false);
    Service.pool().forEach(Level.size(), [&](size_t I) {
      // Degraded mode: past the deadline, tasks become no-ops and only
      // the completed checks establish cores.
      if (Dl.expired()) {
        DeadlineSkipped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Queries.fetch_add(1, std::memory_order_relaxed);
      try {
        Unsat[I] = Service.checkLiterals(maskLiterals(Level[I], Predicates)) ==
                   SatResult::Unsat;
      } catch (const DeadlineExpired &) {
        DeadlineSkipped.fetch_add(1, std::memory_order_relaxed);
      }
    });

    for (size_t I = 0; I < Level.size(); ++I) {
      if (!Unsat[I])
        continue;
      Cores.push_back(Level[I]);
      Result.Assumptions.push_back(maskAssumption(Level[I], Predicates, Ctx));
    }
  }
  Result.SolverQueries = Queries.load();
  Result.DeadlineSkipped = DeadlineSkipped.load();
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
