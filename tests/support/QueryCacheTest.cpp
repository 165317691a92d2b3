//===- tests/support/QueryCacheTest.cpp - Query cache unit tests ----------===//

#include "support/QueryCache.h"
#include "support/SolverPool.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace temos;

namespace {

TEST(QueryCache, MissThenHit) {
  QueryCache Cache;
  EXPECT_FALSE(Cache.lookup("k").has_value());
  EXPECT_EQ(Cache.misses(), 1u);

  Cache.insert("k", 7);
  std::optional<int> Verdict = Cache.lookup("k");
  ASSERT_TRUE(Verdict.has_value());
  EXPECT_EQ(*Verdict, 7);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(QueryCache, InsertIsLastWriterWins) {
  // Concurrent writers for one key computed the same verdict, so the
  // overwrite is benign; sequentially, the latest insert sticks.
  QueryCache Cache;
  Cache.insert("k", 1);
  Cache.insert("k", 2);
  std::optional<int> Verdict = Cache.lookup("k");
  ASSERT_TRUE(Verdict.has_value());
  EXPECT_EQ(*Verdict, 2);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(QueryCache, ClearResetsEverything) {
  QueryCache Cache;
  Cache.insert("k", 1);
  (void)Cache.lookup("k");
  (void)Cache.lookup("missing");
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 0u);
}

TEST(QueryCache, CanonicalKeyIsOrderInvariant) {
  // The same literal set in any order must produce the same key: the
  // consistency checker enumerates subsets in mask order while SyGuS
  // verifiers build conjunctions in chain order.
  std::string A = QueryCache::canonicalKey(
      "lits/LIA", {{"(x < y)", true}, {"(y < x)", true}});
  std::string B = QueryCache::canonicalKey(
      "lits/LIA", {{"(y < x)", true}, {"(x < y)", true}});
  EXPECT_EQ(A, B);
}

TEST(QueryCache, CanonicalKeySeparatesPolarity) {
  // (p, true) and (p, false) are different literals.
  std::string Pos = QueryCache::canonicalKey("lits/LIA", {{"(x < y)", true}});
  std::string Neg = QueryCache::canonicalKey("lits/LIA", {{"(x < y)", false}});
  EXPECT_NE(Pos, Neg);
}

TEST(QueryCache, CanonicalKeySeparatesTheories) {
  std::string Lia = QueryCache::canonicalKey("lits/LIA", {{"(x = y)", true}});
  std::string Uf = QueryCache::canonicalKey("lits/UF", {{"(x = y)", true}});
  EXPECT_NE(Lia, Uf);
}

TEST(QueryCache, CanonicalKeyDeduplicatesLiterals) {
  // {l, l} and {l} are the same conjunction.
  std::string Twice = QueryCache::canonicalKey(
      "lits/LIA", {{"(x < y)", true}, {"(x < y)", true}});
  std::string Once = QueryCache::canonicalKey("lits/LIA", {{"(x < y)", true}});
  EXPECT_EQ(Twice, Once);
}

TEST(QueryCache, CanonicalKeyResistsConcatenationCollisions) {
  // Length-prefixed joining: {"ab", "c"} must not collide with
  // {"a", "bc"} even though the concatenations agree.
  std::string AbC =
      QueryCache::canonicalKey("t", {{"ab", true}, {"c", true}});
  std::string ABc =
      QueryCache::canonicalKey("t", {{"a", true}, {"bc", true}});
  EXPECT_NE(AbC, ABc);
}

TEST(QueryCache, DropsEverythingAtCapacity) {
  QueryCache Cache(2);
  Cache.insert("a", 1);
  Cache.insert("b", 2);
  // Overwriting a present key never drops.
  Cache.insert("a", 9);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.lookup("a"), 9);
  // A new key on a full cache drops every entry first.
  Cache.insert("c", 3);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.lookup("c"), 3);
  EXPECT_FALSE(Cache.lookup("a").has_value());
  EXPECT_FALSE(Cache.lookup("b").has_value());
  // Traffic counts survive the drop: the pipeline's per-run deltas
  // subtract snapshots of them.
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(Cache.misses(), 2u);
}

TEST(QueryCache, ConcurrentUseUnderCapacityPressureStaysCoherent) {
  // Drops under contention: counts stay coherent and every lookup
  // that hits returns the verdict originally stored for that key.
  QueryCache Cache(4);
  SolverPool Pool(4);
  std::atomic<int> Bad{0};
  Pool.forEach(256, [&](size_t I) {
    std::string Key = "k" + std::to_string(I % 16);
    if (std::optional<int> Verdict = Cache.lookup(Key)) {
      if (*Verdict != int(I % 16))
        ++Bad;
    } else {
      Cache.insert(Key, int(I % 16));
    }
  });
  EXPECT_EQ(Bad.load(), 0);
  EXPECT_EQ(Cache.hits() + Cache.misses(), 256u);
  EXPECT_LE(Cache.size(), 4u);
}

TEST(QueryCache, ConcurrentMixedUseKeepsCountsConsistent) {
  // Hammer one cache from a pool: every lookup is either a hit or a
  // miss, and the stored verdict for a key never changes.
  QueryCache Cache;
  SolverPool Pool(4);
  std::atomic<int> Bad{0};
  Pool.forEach(64, [&](size_t I) {
    std::string Key = "k" + std::to_string(I % 8);
    if (std::optional<int> Verdict = Cache.lookup(Key)) {
      if (*Verdict != int(I % 8))
        ++Bad;
    } else {
      Cache.insert(Key, int(I % 8));
    }
  });
  EXPECT_EQ(Bad.load(), 0);
  EXPECT_EQ(Cache.hits() + Cache.misses(), 64u);
  EXPECT_LE(Cache.size(), 8u);
}

} // namespace
