//===- theory/SolverService.cpp - Shared parallel solver service -----------===//

#include "theory/SolverService.h"

#include <algorithm>
#include <span>

using namespace temos;

SolverService::SolverService(Theory Th, Config C)
    : Cfg(C), Prototype(Th), Pool(C.NumThreads) {}

SatResult SolverService::cached(const std::string &Key,
                                const std::function<SatResult()> &Compute) {
  if (!Cfg.CacheEnabled)
    return Compute();
  {
    // Wait out another worker's computation of this key; its verdict is
    // then a hit. A miss claims the key.
    std::unique_lock<std::mutex> Lock(InFlightMutex);
    InFlightDone.wait(Lock, [&] { return !InFlight.count(Key); });
    if (auto Hit = Cache.lookup(Key))
      return static_cast<SatResult>(*Hit);
    InFlight.insert(Key);
  }
  // Release the claim however Compute() ends (a deadline throws).
  struct Release {
    SolverService &S;
    const std::string &Key;
    ~Release() {
      {
        std::lock_guard<std::mutex> Lock(S.InFlightMutex);
        S.InFlight.erase(Key);
      }
      S.InFlightDone.notify_all();
    }
  } Claim{*this, Key};
  SatResult R = Compute();
  // Unknown verdicts are resource-limit artifacts, not facts about the
  // query; don't memoize them (a waiter then misses and computes).
  if (R != SatResult::Unknown)
    Cache.insert(Key, static_cast<int>(R));
  return R;
}

namespace {

/// A cache key: the kind of query ('L' or 'F'), then node addresses.
std::string nodeKey(char Kind, std::span<const uintptr_t> Nodes) {
  std::string Key(1, Kind);
  Key.append(reinterpret_cast<const char *>(Nodes.data()), Nodes.size_bytes());
  return Key;
}

} // namespace

SatResult
SolverService::checkLiterals(const std::vector<TheoryLiteral> &Literals) {
  // Terms are aligned, so a literal's polarity fits in its atom
  // address's low bit.
  static_assert(alignof(Term) > 1);
  std::vector<uintptr_t> Set;
  Set.reserve(Literals.size());
  for (const TheoryLiteral &L : Literals)
    Set.push_back(reinterpret_cast<uintptr_t>(L.Atom) | L.Positive);
  std::sort(Set.begin(), Set.end());
  Set.erase(std::unique(Set.begin(), Set.end()), Set.end());
  return cached(nodeKey('L', Set),
                [&] { return Prototype.clone().checkLiterals(Literals); });
}

SatResult SolverService::checkFormula(const Formula *F) {
  const uintptr_t Node = reinterpret_cast<uintptr_t>(F);
  return cached(nodeKey('F', {&Node, 1}),
                [&] { return Prototype.clone().checkFormula(F); });
}
