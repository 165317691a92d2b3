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
  std::unique_lock<std::mutex> Lock(Mutex);
  // Wait out another thread's claim on this key; its stored verdict is
  // then a hit. A miss claims the key.
  auto It = Table.end();
  Settled.wait(Lock, [&] {
    It = Table.find(Key);
    return It == Table.end() || It->second;
  });
  if (It != Table.end()) {
    ++Hits;
    return *It->second;
  }
  ++Misses;
  // Claims are erased only by their holder and drops keep them, so the
  // slot outlives the unlocked computation.
  std::optional<SatResult> &Slot = Table.try_emplace(Key).first->second;
  Lock.unlock();

  // Stores the verdict in the claimed slot, or releases the claim for
  // an Unknown verdict or a throw, and wakes the waiters.
  auto Settle = [&](SatResult R) {
    {
      std::lock_guard<std::mutex> Guard(Mutex);
      if (R == SatResult::Unknown) {
        Table.erase(Key);
      } else {
        if (Stored == DefaultCapacity) {
          std::erase_if(Table, [](const auto &Entry) {
            return Entry.second.has_value();
          });
          Stored = 0;
        }
        Slot = R;
        ++Stored;
      }
    }
    Settled.notify_all();
  };
  SatResult R;
  try {
    R = Compute();
  } catch (...) {
    Settle(SatResult::Unknown);
    throw;
  }
  Settle(R);
  return R;
}

size_t SolverService::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

size_t SolverService::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

size_t SolverService::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stored;
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
