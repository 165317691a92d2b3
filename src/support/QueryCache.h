//===- support/QueryCache.h - Memoized solver query results ----*- C++ -*-===//
///
/// \file
/// A thread-safe memo table for solver verdicts, shared by every worker
/// of the solver service. A key is opaque bytes: the service that fills
/// the cache decides what makes two queries the same (see
/// SolverService.h), and this table only maps keys to verdicts.
///
/// The table is bounded like every other memo in the pipeline: when an
/// insert finds it full, it drops every entry. Dropping only costs
/// future recomputation, never a verdict change.
///
/// Verdicts are stored as int so this lowest-layer component does not
/// depend on the theory layer's SatResult; the solver service casts.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_SUPPORT_QUERYCACHE_H
#define TEMOS_SUPPORT_QUERYCACHE_H

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace temos {

/// Thread-safe byte-keyed verdict memo with hit/miss accounting and a
/// drop-everything size cap.
class QueryCache {
public:
  /// Default entry cap. Far above any bundled workload's working set
  /// (the whole 16-benchmark suite interns a few hundred keys), so
  /// default-configured runs never drop; it exists to bound a
  /// long-lived service under open-ended traffic.
  static constexpr size_t DefaultCapacity = 1 << 16;

  explicit QueryCache(size_t Capacity = DefaultCapacity)
      : Capacity(Capacity) {}

  /// Returns the stored verdict, or nullopt on a miss. Counts a hit or
  /// a miss.
  std::optional<int> lookup(const std::string &Key);

  /// Stores \p Verdict under \p Key, first dropping every entry if the
  /// cache is full. Last writer wins; concurrent writers for the same
  /// key necessarily computed the same verdict, so the race is benign.
  void insert(const std::string &Key, int Verdict);

  /// Lookups served / missed since construction or clear(); a drop at
  /// the cap does not reset them.
  size_t hits() const;
  size_t misses() const;
  size_t size() const;
  void clear();

private:
  mutable std::mutex Mutex;
  std::unordered_map<std::string, int> Entries;
  const size_t Capacity;
  size_t Hits = 0;
  size_t Misses = 0;
};

} // namespace temos

#endif // TEMOS_SUPPORT_QUERYCACHE_H
