//===- LruCacheShardTest.cpp - Concurrent shard eviction ------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrent eviction stress for ShardedLruCache: writers overflowing
/// every shard while readers probe, under TSan in CI. Checks the
/// structural invariants eviction must preserve — size never exceeds
/// capacity, survivors read back exactly, eviction counters add up —
/// without assuming any cross-thread interleaving.
///
//===----------------------------------------------------------------------===//

#include "adt/LruCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ag;

namespace {

TEST(LruCacheShard, EvictsWhenShardOverflows) {
  // Capacity 8 over 4 shards = 2 entries per shard; 64 inserts must
  // evict, and the survivors are exactly readable.
  ShardedLruCache<uint64_t, std::string> Cache(/*Capacity=*/8, /*NumShards=*/4);
  for (uint64_t K = 0; K != 64; ++K)
    Cache.put(K, "v" + std::to_string(K));
  EXPECT_LE(Cache.size(), 8u);
  CacheStats S = Cache.stats();
  EXPECT_GE(S.Evictions, 64u - 8u);
  unsigned Survivors = 0;
  for (uint64_t K = 0; K != 64; ++K) {
    if (std::optional<std::string> V = Cache.get(K)) {
      EXPECT_EQ(*V, "v" + std::to_string(K));
      ++Survivors;
    }
  }
  EXPECT_EQ(Survivors, Cache.size());
}

TEST(LruCacheShard, LruOrderWithinShard) {
  // One shard makes recency order observable: touching the oldest key
  // must redirect eviction to the next-oldest.
  ShardedLruCache<uint64_t, int> Cache(/*Capacity=*/3, /*NumShards=*/1);
  Cache.put(1, 10);
  Cache.put(2, 20);
  Cache.put(3, 30);
  ASSERT_TRUE(Cache.get(1).has_value()); // 2 is now least-recently used.
  Cache.put(4, 40);
  EXPECT_TRUE(Cache.get(1).has_value());
  EXPECT_FALSE(Cache.get(2).has_value());
  EXPECT_TRUE(Cache.get(3).has_value());
  EXPECT_TRUE(Cache.get(4).has_value());
}

TEST(LruCacheShard, ZeroCapacityDisablesWithoutCrashing) {
  ShardedLruCache<uint64_t, int> Cache(/*Capacity=*/0, /*NumShards=*/4);
  Cache.put(1, 10);
  EXPECT_FALSE(Cache.get(1).has_value());
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(LruCacheShard, ConcurrentEvictionUnderPressure) {
  // Tiny capacity + many writers keeps every shard evicting for the
  // whole run while readers race the same key range. The assertions
  // are invariants, not interleavings: values are self-describing
  // (value == key * 3 + 1), so any successful read must be coherent,
  // and the final size respects capacity.
  constexpr unsigned Writers = 4;
  constexpr unsigned Readers = 4;
  constexpr uint64_t KeysPerWriter = 4000;
  ShardedLruCache<uint64_t, uint64_t> Cache(/*Capacity=*/64, /*NumShards=*/8);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> TornReads{0};

  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != Writers; ++W)
    Threads.emplace_back([&, W] {
      for (uint64_t I = 0; I != KeysPerWriter; ++I) {
        uint64_t K = W * KeysPerWriter + I;
        Cache.put(K, K * 3 + 1);
        // Re-put a shared hot key from every writer: same key, same
        // value, hammering one shard's list head.
        Cache.put(7, 7 * 3 + 1);
      }
    });
  for (unsigned R = 0; R != Readers; ++R)
    Threads.emplace_back([&, R] {
      uint64_t K = R;
      while (!Stop.load(std::memory_order_relaxed)) {
        if (std::optional<uint64_t> V = Cache.get(K))
          if (*V != K * 3 + 1)
            TornReads.fetch_add(1, std::memory_order_relaxed);
        K = (K + 13) % (Writers * KeysPerWriter);
      }
    });

  for (unsigned W = 0; W != Writers; ++W)
    Threads[W].join();
  Stop.store(true, std::memory_order_relaxed);
  for (unsigned R = Writers; R != Threads.size(); ++R)
    Threads[R].join();

  EXPECT_EQ(TornReads.load(), 0u);
  EXPECT_LE(Cache.size(), 64u);
  CacheStats S = Cache.stats();
  EXPECT_GE(S.Evictions, Writers * KeysPerWriter - 64);

  // The cache still functions after the storm.
  Cache.put(999999, 42);
  std::optional<uint64_t> V = Cache.get(999999);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 42u);
}

} // namespace
