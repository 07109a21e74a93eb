//===- MemKernelTest.cpp - Arena, interning and COW solution tests --------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the memory-kernel overhaul: ElementArena slab reuse and global
/// ArenaStats accounting, SetInterner hash-consing (physical sharing, not
/// just equality), PointsToSolution's copy-on-write set handles, and the
/// end-to-end accounting invariant — tracked bitmap bytes return to the
/// pre-solve watermark after a governed solve trips mid-run and its
/// result is destroyed (no drift from exception-path destruction).
///
//===----------------------------------------------------------------------===//

#include "adt/ElementArena.h"
#include "adt/FaultInjector.h"
#include "adt/InternTable.h"
#include "adt/MemTracker.h"
#include "core/PointsToSolution.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace ag;

namespace {

// --- ElementArena --------------------------------------------------------

TEST(ElementArena, RecyclesFreedBlocksBeforeGrowingSlabs) {
  ElementArena Arena(SparseBitVector::elementBytes());
  EXPECT_EQ(Arena.reservedBytes(), 0u);
  EXPECT_EQ(Arena.liveBlocks(), 0u);

  std::vector<void *> Blocks;
  for (int I = 0; I != 100; ++I)
    Blocks.push_back(Arena.allocate());
  EXPECT_EQ(Arena.liveBlocks(), 100u);
  uint64_t Reserved = Arena.reservedBytes();
  EXPECT_GE(Reserved, 100 * SparseBitVector::elementBytes());

  for (void *B : Blocks)
    Arena.deallocate(B);
  EXPECT_EQ(Arena.liveBlocks(), 0u);
  EXPECT_EQ(Arena.reservedBytes(), Reserved)
      << "slabs are retained for reuse, not returned per block";

  // Re-allocating the same count must come entirely from the free list.
  for (int I = 0; I != 100; ++I)
    Arena.allocate();
  EXPECT_EQ(Arena.liveBlocks(), 100u);
  EXPECT_EQ(Arena.reservedBytes(), Reserved);
}

TEST(ElementArena, GlobalStatsTrackSlabHighWaterMarks) {
  ArenaStats &Stats = ArenaStats::instance();
  Stats.resetPeaks();
  uint64_t Before = Stats.currentReservedBytes();
  {
    ElementArena Arena(SparseBitVector::elementBytes());
    std::vector<void *> Blocks;
    for (int I = 0; I != 500; ++I)
      Blocks.push_back(Arena.allocate());
    EXPECT_GT(Stats.currentReservedBytes(), Before);
    EXPECT_GE(Stats.peakReservedBytes(),
              Stats.currentReservedBytes());
    EXPECT_GT(Stats.peakSlabs(), 0u);
  }
  EXPECT_EQ(ArenaStats::instance().currentReservedBytes(), Before)
      << "arena destruction must return every slab's bytes";
}

// --- SetInterner ---------------------------------------------------------

SparseBitVector makeSet(std::initializer_list<uint32_t> Bits) {
  SparseBitVector V;
  for (uint32_t B : Bits)
    V.set(B);
  return V;
}

TEST(SetInterner, EqualContentYieldsOnePhysicalSet) {
  SetInterner In;
  auto A = In.intern(makeSet({1, 128, 4000}));
  auto B = In.intern(makeSet({1, 128, 4000}));
  auto C = In.intern(makeSet({1, 128, 4001}));
  EXPECT_EQ(A.get(), B.get()) << "equal sets must share storage";
  EXPECT_NE(A.get(), C.get());
  EXPECT_EQ(In.hits(), 1u);
  EXPECT_EQ(In.misses(), 2u);
  EXPECT_GT(In.dedupedBytes(), 0u);
}

TEST(SetInterner, HitConsumesTheOfferedSetImmediately) {
  SetInterner In;
  In.intern(makeSet({7, 70, 700}));
  SparseBitVector Dup = makeSet({7, 70, 700});
  uint64_t Live = MemTracker::instance().currentBytes(MemCategory::Bitmap);
  auto H = In.intern(std::move(Dup));
  EXPECT_LT(MemTracker::instance().currentBytes(MemCategory::Bitmap), Live)
      << "a hit must free the duplicate's elements, not park them";
  EXPECT_TRUE(Dup.empty()); // NOLINT: consumed on hit by contract.
  EXPECT_EQ(H->count(), 3u);
}

// --- PointsToSolution copy-on-write --------------------------------------

TEST(PointsToSolution, MutableSetDetachesSharedHandles) {
  PointsToSolution Sol(4);
  Sol.mutableSet(0).set(42);
  Sol.setSharedSet(1, Sol.sharedSet(0));
  ASSERT_EQ(Sol.sharedSet(0).get(), Sol.sharedSet(1).get());
  EXPECT_TRUE(Sol.pointsToObj(1, 42));

  // Writing through one holder must not disturb the other.
  Sol.mutableSet(1).set(43);
  EXPECT_NE(Sol.sharedSet(0).get(), Sol.sharedSet(1).get());
  EXPECT_TRUE(Sol.pointsToObj(1, 42));
  EXPECT_TRUE(Sol.pointsToObj(1, 43));
  EXPECT_FALSE(Sol.pointsToObj(0, 43));

  // A uniquely-held set mutates in place.
  const SparseBitVector *P = Sol.sharedSet(1).get();
  Sol.mutableSet(1).set(44);
  EXPECT_EQ(Sol.sharedSet(1).get(), P);
}

TEST(PointsToSolution, InternSharedDedupsEqualRepSets) {
  PointsToSolution Sol(6);
  for (NodeId V : {0u, 2u, 4u}) {
    Sol.mutableSet(V).set(100);
    Sol.mutableSet(V).set(200);
  }
  Sol.mutableSet(5).set(300);
  auto [Hits, Misses] = Sol.internShared();
  EXPECT_EQ(Hits, 2u);
  EXPECT_EQ(Misses, 2u);
  EXPECT_EQ(Sol.sharedSet(0).get(), Sol.sharedSet(2).get());
  EXPECT_EQ(Sol.sharedSet(0).get(), Sol.sharedSet(4).get());
  EXPECT_NE(Sol.sharedSet(0).get(), Sol.sharedSet(5).get());

  PointsToSolution::SharingSummary Sh = Sol.sharingSummary();
  EXPECT_EQ(Sh.Reps, 4u);
  EXPECT_EQ(Sh.PhysicalSets, 2u);
  EXPECT_LT(Sh.PhysicalBytes, Sh.RoutedBytes);

  // Interning must not change observable content.
  EXPECT_TRUE(Sol.pointsToObj(2, 100));
  EXPECT_TRUE(Sol.pointsToObj(4, 200));
  EXPECT_TRUE(Sol.pointsToObj(5, 300));
  EXPECT_FALSE(Sol.pointsToObj(5, 100));
}

// --- Accounting drift under governed trips -------------------------------

class MemKernelFault : public ::testing::Test {
protected:
  void TearDown() override { FaultInjector::instance().disarmAll(); }
};

TEST_F(MemKernelFault, TrippedSolveReturnsBytesToPreSolveWatermark) {
  BenchmarkSpec Spec;
  Spec.NumFunctions = 12;
  Spec.VarsPerFunction = 8;
  Spec.NumGlobals = 20;
  ConstraintSystem CS = generateBenchmark(Spec);

  for (SolverKind Kind : {SolverKind::LCD, SolverKind::LCDHCD}) {
    // Let some propagation happen before the latched allocation fault
    // surfaces, so arena-backed sets hold elements when the governor
    // unwinds the solver mid-run.
    FaultInjector::instance().armAfter(FaultSite::Allocation,
                                       /*Countdown=*/200);
    uint64_t Watermark =
        MemTracker::instance().currentBytes(MemCategory::Bitmap);
    uint64_t TotalWatermark = MemTracker::instance().currentBytesTotal();
    {
      SolveBudget B;
      B.CheckIntervalOps = 1;
      B.AllowFallback = false; // Keep the partial state: worst case for
                               // exception-path accounting.
      SolveResult R = solveGoverned(CS, Kind, B);
      ASSERT_EQ(R.Outcome, SolveOutcome::Partial)
          << solverKindName(Kind);
      EXPECT_EQ(R.St.code(), StatusCode::MemoryLimit);
    }
    FaultInjector::instance().disarmAll();
    EXPECT_EQ(MemTracker::instance().currentBytes(MemCategory::Bitmap),
              Watermark)
        << solverKindName(Kind)
        << ": tracked bitmap bytes drifted across a tripped solve";
    EXPECT_EQ(MemTracker::instance().currentBytesTotal(), TotalWatermark)
        << solverKindName(Kind);
  }
}

} // namespace
