//===- support/QueryCache.cpp - Memoized solver query results --------------===//

#include "support/QueryCache.h"

using namespace temos;

std::optional<int> QueryCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end()) {
    ++Misses;
    return std::nullopt;
  }
  ++Hits;
  return It->second;
}

void QueryCache::insert(const std::string &Key, int Verdict) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Entries.size() >= Capacity && !Entries.count(Key))
    Entries.clear();
  Entries[Key] = Verdict;
}

size_t QueryCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

size_t QueryCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

size_t QueryCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

void QueryCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
  Hits = Misses = 0;
}
