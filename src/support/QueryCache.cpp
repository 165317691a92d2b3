//===- support/QueryCache.cpp - Memoized solver query results --------------===//

#include "support/QueryCache.h"

#include <algorithm>

using namespace temos;

std::string
QueryCache::canonicalKey(const std::string &TheoryTag,
                         std::vector<std::pair<std::string, bool>> Literals) {
  // Polarity is folded into the rendering before sorting so the sort
  // order (and therefore the key) only depends on the literal *set*.
  std::vector<std::string> Rendered;
  Rendered.reserve(Literals.size());
  for (auto &[Text, Positive] : Literals)
    Rendered.push_back(std::string(1, Positive ? '+' : '-').append(Text));
  std::sort(Rendered.begin(), Rendered.end());
  Rendered.erase(std::unique(Rendered.begin(), Rendered.end()),
                 Rendered.end());

  std::string Key = TheoryTag;
  for (const std::string &R : Rendered) {
    // Length-prefix each literal: {"ab","c"} and {"a","bc"} must not
    // concatenate to the same key.
    Key += '|';
    Key += std::to_string(R.size());
    Key += ':';
    Key += R;
  }
  return Key;
}

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
