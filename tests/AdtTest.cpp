//===- AdtTest.cpp - Tests for union-find, worklists, RNG, SCC ------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "adt/FaultInjector.h"
#include "adt/Hashing.h"
#include "adt/LruCache.h"
#include "adt/MemTracker.h"
#include "adt/Rng.h"
#include "adt/Scc.h"
#include "adt/UnionFind.h"
#include "adt/Worklist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <map>
#include <set>

using namespace ag;

namespace {

//===----------------------------------------------------------------------===//
// UnionFind
//===----------------------------------------------------------------------===//

TEST(UnionFind, SingletonsAreOwnReps) {
  UnionFind UF(5);
  for (uint32_t I = 0; I != 5; ++I) {
    EXPECT_EQ(UF.find(I), I);
    EXPECT_TRUE(UF.isRepresentative(I));
  }
}

TEST(UnionFind, UniteMergesSets) {
  UnionFind UF(6);
  uint32_t R1 = UF.unite(0, 1);
  EXPECT_EQ(UF.find(0), UF.find(1));
  EXPECT_EQ(UF.find(0), R1);
  UF.unite(2, 3);
  EXPECT_NE(UF.find(0), UF.find(2));
  UF.unite(1, 3);
  EXPECT_EQ(UF.find(0), UF.find(2));
  EXPECT_EQ(UF.unite(0, 3), UF.find(0)) << "uniting united sets is a no-op";
}

TEST(UnionFind, UniteIntoKeepsSurvivor) {
  UnionFind UF(4);
  EXPECT_EQ(UF.uniteInto(2, 3), 2u);
  EXPECT_EQ(UF.find(3), 2u);
  // Survivor semantics hold even against rank preferences.
  UF.unite(0, 1);
  uint32_t Rep01 = UF.find(0);
  EXPECT_EQ(UF.uniteInto(3, Rep01), 2u) << "3's representative is 2";
  EXPECT_EQ(UF.find(0), 2u);
}

TEST(UnionFind, GrowPreservesState) {
  UnionFind UF(2);
  UF.unite(0, 1);
  UF.grow(10);
  EXPECT_EQ(UF.find(0), UF.find(1));
  EXPECT_EQ(UF.find(9), 9u);
  EXPECT_EQ(UF.size(), 10u);
}

TEST(UnionFind, RandomizedAgainstNaivePartition) {
  Rng R(5);
  constexpr uint32_t N = 200;
  UnionFind UF(N);
  std::vector<uint32_t> Naive(N);
  for (uint32_t I = 0; I != N; ++I)
    Naive[I] = I;
  auto naiveUnite = [&](uint32_t A, uint32_t B) {
    uint32_t From = Naive[B], To = Naive[A];
    if (From == To)
      return;
    for (uint32_t &X : Naive)
      if (X == From)
        X = To;
  };
  for (int Step = 0; Step != 500; ++Step) {
    uint32_t A = static_cast<uint32_t>(R.nextBelow(N));
    uint32_t B = static_cast<uint32_t>(R.nextBelow(N));
    if (R.nextBool(0.5)) {
      UF.unite(A, B);
      naiveUnite(A, B);
    } else {
      EXPECT_EQ(UF.find(A) == UF.find(B), Naive[A] == Naive[B]);
    }
  }
}

//===----------------------------------------------------------------------===//
// Worklist
//===----------------------------------------------------------------------===//

TEST(Worklist, FifoOrder) {
  Worklist W(WorklistPolicy::Fifo);
  W.grow(10);
  W.push(3);
  W.push(1);
  W.push(4);
  EXPECT_EQ(W.pop(), 3u);
  EXPECT_EQ(W.pop(), 1u);
  EXPECT_EQ(W.pop(), 4u);
  EXPECT_TRUE(W.empty());
}

TEST(Worklist, DeduplicatesPushes) {
  Worklist W(WorklistPolicy::Fifo);
  W.grow(4);
  W.push(2);
  W.push(2);
  W.push(2);
  EXPECT_EQ(W.pop(), 2u);
  EXPECT_TRUE(W.empty());
  // After popping, the node may be pushed again.
  W.push(2);
  EXPECT_FALSE(W.empty());
  EXPECT_EQ(W.pop(), 2u);
}

TEST(Worklist, DividedLrfPrefersLeastRecentlyFired) {
  Worklist W(WorklistPolicy::DividedLrf);
  W.grow(8);
  // Establish firing history: 5 fired first (oldest), then 6, then 7.
  W.push(5);
  W.push(6);
  W.push(7);
  EXPECT_EQ(W.pop(), 5u); // Never-fired ties break by id.
  EXPECT_EQ(W.pop(), 6u);
  EXPECT_EQ(W.pop(), 7u);
  // Re-push in a different order: LRF must pop 5 (fired longest ago).
  W.push(7);
  W.push(5);
  W.push(6);
  EXPECT_EQ(W.pop(), 5u);
  EXPECT_EQ(W.pop(), 6u);
  EXPECT_EQ(W.pop(), 7u);
}

TEST(Worklist, DividedKeepsCurrentUntilDrained) {
  Worklist W(WorklistPolicy::DividedLrf);
  W.grow(8);
  W.push(1);
  W.push(2);
  EXPECT_EQ(W.pop(), 1u);
  // 3 goes to `next`, so it must come after the drained current (2).
  W.push(3);
  EXPECT_EQ(W.pop(), 2u);
  EXPECT_EQ(W.pop(), 3u);
}

TEST(Worklist, AllPoliciesDrainEverything) {
  for (WorklistPolicy P : {WorklistPolicy::Fifo, WorklistPolicy::Lrf,
                           WorklistPolicy::DividedLrf}) {
    Worklist W(P);
    W.grow(100);
    std::set<uint32_t> Expected;
    Rng R(11);
    for (int I = 0; I != 60; ++I) {
      uint32_t X = static_cast<uint32_t>(R.nextBelow(100));
      W.push(X);
      Expected.insert(X);
    }
    std::set<uint32_t> Seen;
    while (!W.empty())
      EXPECT_TRUE(Seen.insert(W.pop()).second) << "duplicate pop";
    EXPECT_EQ(Seen, Expected);
  }
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I != 10; ++I) {
    uint64_t X = A.next();
    EXPECT_EQ(X, B.next());
    (void)C;
  }
  Rng D(43);
  EXPECT_NE(Rng(42).next(), D.next());
}

TEST(Rng, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    uint64_t X = R.nextInRange(5, 9);
    EXPECT_GE(X, 5u);
    EXPECT_LE(X, 9u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng R(13);
  std::map<uint64_t, int> Counts;
  for (int I = 0; I != 10000; ++I)
    ++Counts[R.nextBelow(4)];
  for (uint64_t V = 0; V != 4; ++V)
    EXPECT_NEAR(Counts[V], 2500, 300) << "bucket " << V;
}

//===----------------------------------------------------------------------===//
// Static SCC
//===----------------------------------------------------------------------===//

TEST(Scc, SingletonGraph) {
  SccResult R = computeSccs(3, {{}, {}, {}});
  EXPECT_EQ(R.Members.size(), 3u);
  for (uint32_t I = 0; I != 3; ++I)
    EXPECT_EQ(R.Members[R.Comp[I]].size(), 1u);
}

TEST(Scc, SimpleCycle) {
  // 0 -> 1 -> 2 -> 0, plus 3 hanging off.
  SccResult R = computeSccs(4, {{1}, {2}, {0}, {0}});
  EXPECT_EQ(R.Comp[0], R.Comp[1]);
  EXPECT_EQ(R.Comp[1], R.Comp[2]);
  EXPECT_NE(R.Comp[3], R.Comp[0]);
  EXPECT_EQ(R.Members.size(), 2u);
}

TEST(Scc, ReverseTopologicalNumbering) {
  // Chain 0 -> 1 -> 2: successors must get smaller component ids.
  SccResult R = computeSccs(3, {{1}, {2}, {}});
  EXPECT_LT(R.Comp[2], R.Comp[1]);
  EXPECT_LT(R.Comp[1], R.Comp[0]);
}

TEST(Scc, SelfLoopIsItsOwnScc) {
  SccResult R = computeSccs(2, {{0, 1}, {}});
  EXPECT_NE(R.Comp[0], R.Comp[1]);
  EXPECT_EQ(R.Members[R.Comp[0]].size(), 1u);
}

TEST(Scc, NestedCyclesMergeCorrectly) {
  // Two interlocking cycles: 0->1->2->0 and 1->3->1 — all one SCC.
  SccResult R = computeSccs(4, {{1}, {2, 3}, {0}, {1}});
  EXPECT_EQ(R.Comp[0], R.Comp[1]);
  EXPECT_EQ(R.Comp[1], R.Comp[2]);
  EXPECT_EQ(R.Comp[2], R.Comp[3]);
}

TEST(Scc, RandomizedAgainstReachabilityOracle) {
  Rng Rand(3);
  constexpr uint32_t N = 40;
  for (int Trial = 0; Trial != 10; ++Trial) {
    std::vector<std::vector<uint32_t>> Succs(N);
    for (int E = 0; E != 120; ++E)
      Succs[Rand.nextBelow(N)].push_back(
          static_cast<uint32_t>(Rand.nextBelow(N)));
    // Floyd-Warshall-style reachability oracle.
    std::vector<std::bitset<N>> Reach(N);
    for (uint32_t U = 0; U != N; ++U) {
      Reach[U][U] = true;
      for (uint32_t V : Succs[U])
        Reach[U][V] = true;
    }
    for (uint32_t K = 0; K != N; ++K)
      for (uint32_t U = 0; U != N; ++U)
        if (Reach[U][K])
          Reach[U] |= Reach[K];
    SccResult R = computeSccs(N, Succs);
    for (uint32_t U = 0; U != N; ++U)
      for (uint32_t V = 0; V != N; ++V)
        EXPECT_EQ(R.Comp[U] == R.Comp[V], Reach[U][V] && Reach[V][U])
            << U << " vs " << V;
  }
}

//===----------------------------------------------------------------------===//
// MemTracker
//===----------------------------------------------------------------------===//

TEST(MemTracker, JointPeakIsHighWaterMarkNotSumOfPeaks) {
  // The per-category peaks of two allocations that were never live at the
  // same time must not inflate the joint peak. All expectations are deltas
  // from the tracker's state at test start, since it is process-wide.
  MemTracker &T = MemTracker::instance();
  T.resetPeaks();
  uint64_t Base = T.currentBytesTotal();

  T.allocate(MemCategory::Bitmap, 1000);
  T.release(MemCategory::Bitmap, 1000);
  T.allocate(MemCategory::BddTable, 600);
  T.release(MemCategory::BddTable, 600);

  EXPECT_EQ(T.currentBytesTotal(), Base);
  // True high-water mark: only one of the two was ever live.
  EXPECT_EQ(T.peakBytesJoint(), Base + 1000);
  // Sum-of-peaks over-approximates: both category peaks count.
  EXPECT_EQ(T.peakBytesTotal(), Base + 1600);
}

TEST(MemTracker, ResetPeaksDropsToLiveBytes) {
  MemTracker &T = MemTracker::instance();
  T.allocate(MemCategory::Other, 512);
  T.resetPeaks();
  uint64_t Live = T.currentBytesTotal();
  EXPECT_EQ(T.peakBytesJoint(), Live);
  T.release(MemCategory::Other, 512);
  // Peaks never decrease below the mark set at reset.
  EXPECT_EQ(T.peakBytesJoint(), Live);
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

class FaultInjectorTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().disarmAll(); }
  void TearDown() override { FaultInjector::instance().disarmAll(); }
};

TEST_F(FaultInjectorTest, CountdownFiresExactlyOnce) {
  FaultInjector &Inj = FaultInjector::instance();
  EXPECT_FALSE(Inj.shouldFail(FaultSite::GovernorCheck));
  Inj.armAfter(FaultSite::GovernorCheck, /*Countdown=*/2);
  EXPECT_FALSE(Inj.shouldFail(FaultSite::GovernorCheck));
  EXPECT_FALSE(Inj.shouldFail(FaultSite::GovernorCheck));
  EXPECT_TRUE(Inj.shouldFail(FaultSite::GovernorCheck));
  // One-shot: the site disarms itself after firing.
  EXPECT_FALSE(Inj.shouldFail(FaultSite::GovernorCheck));
  EXPECT_FALSE(Inj.anyArmed());
}

TEST_F(FaultInjectorTest, AllocationFaultLatchesUntilConsumed) {
  FaultInjector &Inj = FaultInjector::instance();
  EXPECT_FALSE(Inj.consumePendingAllocationFault());
  Inj.armAfter(FaultSite::Allocation, /*Countdown=*/0);
  memAllocate(MemCategory::Other, 8);
  memRelease(MemCategory::Other, 8);
  EXPECT_TRUE(Inj.consumePendingAllocationFault());
  // Consuming clears the latch.
  EXPECT_FALSE(Inj.consumePendingAllocationFault());
}

TEST_F(FaultInjectorTest, DisarmClearsPendingFault) {
  FaultInjector &Inj = FaultInjector::instance();
  Inj.armAfter(FaultSite::Allocation, /*Countdown=*/0);
  memAllocate(MemCategory::Other, 8);
  memRelease(MemCategory::Other, 8);
  Inj.disarm(FaultSite::Allocation);
  EXPECT_FALSE(Inj.consumePendingAllocationFault());
}

TEST_F(FaultInjectorTest, RandomModeIsDeterministicPerSeed) {
  FaultInjector &Inj = FaultInjector::instance();
  auto sample = [&](uint64_t Seed) {
    Inj.armRandom(FaultSite::GovernorCheck, 0.5, Seed);
    std::vector<bool> Seq;
    for (int I = 0; I != 64; ++I)
      Seq.push_back(Inj.shouldFail(FaultSite::GovernorCheck));
    Inj.disarm(FaultSite::GovernorCheck);
    return Seq;
  };
  std::vector<bool> A = sample(7), B = sample(7), C = sample(8);
  EXPECT_EQ(A, B) << "same seed must reproduce the same fault sequence";
  EXPECT_NE(A, C) << "different seeds should diverge";
  // Roughly half the hits fire at p = 0.5.
  int Fired = static_cast<int>(std::count(A.begin(), A.end(), true));
  EXPECT_GT(Fired, 16);
  EXPECT_LT(Fired, 48);
}

TEST(Hashing, Fnv1aMatchesReferenceVectors) {
  // Standard FNV-1a test vectors (64-bit).
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
  // Streaming in two pieces equals one pass.
  EXPECT_EQ(fnv1a("bar", 3, fnv1a("foo", 3)), fnv1a("foobar", 6));
}

TEST(Hashing, Mix64IsABijectionOnSamples) {
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I != 1000; ++I)
    Seen.insert(mix64(I));
  EXPECT_EQ(Seen.size(), 1000u) << "no collisions on a dense range";
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1)) << "order-sensitive";
}

TEST(LruCache, HitMissAndRefresh) {
  ShardedLruCache<uint64_t, int> C(4, 1);
  EXPECT_FALSE(C.get(1).has_value());
  C.put(1, 10);
  C.put(2, 20);
  EXPECT_EQ(C.get(1).value(), 10);
  EXPECT_EQ(C.get(2).value(), 20);
  C.put(1, 11); // Refresh overwrites.
  EXPECT_EQ(C.get(1).value(), 11);
  CacheStats S = C.stats();
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 2u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  ShardedLruCache<uint64_t, int> C(2, 1);
  C.put(1, 10);
  C.put(2, 20);
  EXPECT_TRUE(C.get(1).has_value()); // 1 is now most recent.
  C.put(3, 30);                      // Evicts 2, the LRU entry.
  EXPECT_TRUE(C.get(1).has_value());
  EXPECT_FALSE(C.get(2).has_value());
  EXPECT_TRUE(C.get(3).has_value());
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.size(), 2u);
}

TEST(LruCache, ZeroCapacityStoresNothing) {
  ShardedLruCache<uint64_t, int> C(0, 4);
  for (uint64_t K = 0; K != 100; ++K)
    C.put(K, int(K));
  EXPECT_EQ(C.size(), 0u);
  EXPECT_FALSE(C.get(5).has_value());
  EXPECT_EQ(C.stats().Entries, 0u);
}

TEST(LruCache, ShardedKeepsEveryEntryReachable) {
  ShardedLruCache<uint64_t, uint64_t> C(1024, 8);
  for (uint64_t K = 0; K != 500; ++K)
    C.put(K, K * 3);
  for (uint64_t K = 0; K != 500; ++K) {
    auto V = C.get(K);
    ASSERT_TRUE(V.has_value()) << K;
    EXPECT_EQ(*V, K * 3);
  }
  EXPECT_EQ(C.size(), 500u);
}

} // namespace
