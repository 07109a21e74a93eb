//===- SolutionTest.cpp - PointsToSolution and MemTracker tests -----------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "adt/MemTracker.h"
#include "core/PointsToSolution.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

using namespace ag;

namespace {

TEST(PointsToSolution, EmptyDefaults) {
  PointsToSolution S(4);
  EXPECT_EQ(S.numNodes(), 4u);
  for (NodeId V = 0; V != 4; ++V) {
    EXPECT_EQ(S.repOf(V), V);
    EXPECT_TRUE(S.pointsTo(V).empty());
  }
  EXPECT_EQ(S.totalPointsToSize(), 0u);
}

TEST(PointsToSolution, RepSharing) {
  PointsToSolution S(5);
  S.mutableSet(0).set(3);
  S.mutableSet(0).set(4);
  S.setRep(1, 0);
  S.setRep(2, 0);
  EXPECT_TRUE(S.pointsTo(1) == S.pointsTo(0));
  EXPECT_TRUE(S.pointsToObj(2, 3));
  EXPECT_EQ(S.pointsToVector(1), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(S.totalPointsToSize(), 6u) << "three nodes x two targets";
}

TEST(PointsToSolution, MayAlias) {
  PointsToSolution S(4);
  S.mutableSet(0).set(2);
  S.mutableSet(1).set(3);
  EXPECT_FALSE(S.mayAlias(0, 1));
  S.mutableSet(1).set(2);
  EXPECT_TRUE(S.mayAlias(0, 1));
  EXPECT_FALSE(S.mayAlias(2, 3)) << "empty sets alias nothing";
}

TEST(PointsToSolution, EqualityComparesPerNode) {
  PointsToSolution A(3), B(3);
  A.mutableSet(0).set(2);
  EXPECT_FALSE(A == B);
  B.mutableSet(0).set(2);
  EXPECT_TRUE(A == B);

  // Same logical solution through different rep structure.
  PointsToSolution C(3), D(3);
  C.mutableSet(0).set(2);
  C.setRep(1, 0);
  D.mutableSet(0).set(2);
  D.mutableSet(1).set(2);
  EXPECT_TRUE(C == D)
      << "representative choice must not affect equality";

  PointsToSolution E(2);
  EXPECT_FALSE(A == E) << "different node counts differ";
}

TEST(PointsToSolution, HashDiscriminates) {
  PointsToSolution A(3), B(3);
  EXPECT_EQ(A.hash(), B.hash());
  A.mutableSet(1).set(2);
  EXPECT_NE(A.hash(), B.hash());
  B.mutableSet(1).set(2);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(MemTracker, PeaksAndResets) {
  MemTracker &T = MemTracker::instance();
  uint64_t Base = T.currentBytes(MemCategory::Other);
  T.resetPeaks();
  uint64_t PeakBase = T.peakBytes(MemCategory::Other);

  T.allocate(MemCategory::Other, 1000);
  EXPECT_EQ(T.currentBytes(MemCategory::Other), Base + 1000);
  EXPECT_GE(T.peakBytes(MemCategory::Other), PeakBase + 1000);
  T.release(MemCategory::Other, 400);
  EXPECT_EQ(T.currentBytes(MemCategory::Other), Base + 600);
  EXPECT_GE(T.peakBytes(MemCategory::Other), PeakBase + 1000)
      << "peak survives releases";
  T.resetPeaks();
  EXPECT_EQ(T.peakBytes(MemCategory::Other), Base + 600)
      << "reset snaps peak to current";
  T.release(MemCategory::Other, 600);
}

TEST(MemTracker, TotalSumsCategories) {
  MemTracker &T = MemTracker::instance();
  uint64_t Before = T.currentBytesTotal();
  T.allocate(MemCategory::Other, 128);
  T.allocate(MemCategory::Bitmap, 64);
  EXPECT_EQ(T.currentBytesTotal(), Before + 192);
  T.release(MemCategory::Other, 128);
  T.release(MemCategory::Bitmap, 64);
  EXPECT_EQ(T.currentBytesTotal(), Before);
}

TEST(PointsToSolution, DumpTextFormat) {
  PointsToSolution S(3);
  S.mutableSet(0).set(2);
  S.mutableSet(0).set(1);
  S.setRep(1, 0);
  EXPECT_EQ(S.dumpText(), "0: 1 2\n1: 1 2\n2:\n")
      << "nodes in id order, elements ascending, rep-shared sets expanded";
}

TEST(PointsToSolution, DumpTextStableAcrossSolvers) {
  // The snapshot layer's determinism guarantee: the same solution dumps
  // the same bytes no matter which solver kind or set representation
  // produced it — representative structure must never leak into the dump.
  BenchmarkSpec Spec;
  Spec.NumFunctions = 10;
  Spec.VarsPerFunction = 8;
  Spec.NumGlobals = 16;
  ConstraintSystem CS = generateBenchmark(Spec);

  const std::string Ref = solve(CS, SolverKind::Naive).dumpText();
  ASSERT_FALSE(Ref.empty());
  for (SolverKind K : AllSolverKinds) {
    EXPECT_EQ(solve(CS, K, PtsRepr::Bitmap).dumpText(), Ref)
        << solverKindName(K) << " bitmap";
    if (K != SolverKind::BLQ && K != SolverKind::BLQHCD)
      EXPECT_EQ(solve(CS, K, PtsRepr::Bdd).dumpText(), Ref)
          << solverKindName(K) << " bdd";
  }
}

} // namespace
