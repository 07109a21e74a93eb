//===- LruCache.h - Sharded LRU result cache --------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sharded, mutex-per-shard LRU cache. Its one user in the library is
/// the serve epoch's answer cache (serve/AnswerCache.h); sharding keeps
/// concurrent server workers from serializing on one lock. Entries are
/// never invalidated: a new serve epoch starts a new cache.
///
/// Capacity 0 disables the cache entirely (every lookup misses, nothing
/// is stored).
///
//===----------------------------------------------------------------------===//

#ifndef AG_ADT_LRUCACHE_H
#define AG_ADT_LRUCACHE_H

#include "Hashing.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ag {

/// Aggregate counters across all shards. Eventually consistent: each
/// shard's counters are read under its own lock, so a concurrent mix of
/// hits and misses may be observed mid-update, but totals never go back
/// in time for a single-threaded observer.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
};

/// LRU cache split into \p NumShards independent shards, each guarded by
/// its own mutex. Keys are distributed by mix64(hash) so packed node-id
/// keys with correlated low bits still spread evenly.
template <typename K, typename V, typename Hash = Mix64Hash>
class ShardedLruCache {
public:
  /// \p Capacity is the total entry budget, divided evenly among shards
  /// (each shard gets at least one slot unless the total is zero).
  explicit ShardedLruCache(size_t Capacity, size_t NumShards = 8)
      : Shards(NumShards == 0 ? 1 : NumShards) {
    size_t N = Shards.size();
    size_t Per = Capacity == 0 ? 0 : (Capacity + N - 1) / N;
    for (auto &S : Shards)
      S.Capacity = Per;
  }

  ShardedLruCache(const ShardedLruCache &) = delete;
  ShardedLruCache &operator=(const ShardedLruCache &) = delete;

  /// Returns the cached value and refreshes its recency, or nullopt.
  std::optional<V> get(const K &Key) {
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Map.find(Key);
    if (It == S.Map.end()) {
      ++S.Misses;
      return std::nullopt;
    }
    ++S.Hits;
    S.Order.splice(S.Order.begin(), S.Order, It->second);
    return It->second->second;
  }

  /// Inserts or refreshes \p Key -> \p Value, evicting the least
  /// recently used entry when the shard is full. No-op at capacity 0.
  void put(const K &Key, V Value) {
    Shard &S = shardFor(Key);
    if (S.Capacity == 0)
      return;
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Map.find(Key);
    if (It != S.Map.end()) {
      It->second->second = std::move(Value);
      S.Order.splice(S.Order.begin(), S.Order, It->second);
      return;
    }
    if (S.Map.size() >= S.Capacity) {
      auto &Victim = S.Order.back();
      S.Map.erase(Victim.first);
      S.Order.pop_back();
      ++S.Evictions;
    }
    S.Order.emplace_front(Key, std::move(Value));
    S.Map.emplace(Key, S.Order.begin());
  }

  CacheStats stats() const {
    CacheStats St;
    for (auto &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      St.Hits += S.Hits;
      St.Misses += S.Misses;
      St.Evictions += S.Evictions;
      St.Entries += S.Map.size();
    }
    return St;
  }

  size_t size() const {
    size_t N = 0;
    for (auto &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      N += S.Map.size();
    }
    return N;
  }

private:
  struct Shard {
    mutable std::mutex Mu;
    size_t Capacity = 0;
    // Front = most recently used. Map values point into Order.
    std::list<std::pair<K, V>> Order;
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator,
                       Hash>
        Map;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
  };

  Shard &shardFor(const K &Key) {
    return Shards[mix64(Hash{}(Key)) % Shards.size()];
  }

  std::vector<Shard> Shards;
};

} // namespace ag

#endif // AG_ADT_LRUCACHE_H
