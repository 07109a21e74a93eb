//===- SolverEquivalenceTest.cpp - Cross-solver property tests ------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The load-bearing property of the whole reproduction: every algorithm —
/// HT, PKH, BLQ, LCD, HCD and every +HCD combination, under both points-to
/// representations, with and without OVS preprocessing — must produce
/// exactly the points-to solution of the naive Figure-1 oracle, on
/// randomized and program-shaped constraint systems.
///
//===----------------------------------------------------------------------===//

#include "constraints/OfflineVariableSubstitution.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

using namespace ag;

namespace {

/// Everything but the oracle itself.
std::vector<std::pair<SolverKind, PtsRepr>> allVariants() {
  std::vector<std::pair<SolverKind, PtsRepr>> Out;
  for (SolverKind K : AllSolverKinds) {
    Out.emplace_back(K, PtsRepr::Bitmap);
    if (K != SolverKind::BLQ && K != SolverKind::BLQHCD)
      Out.emplace_back(K, PtsRepr::Bdd);
  }
  return Out;
}

class RandomEquivalence : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomEquivalence, AllSolversMatchOracle) {
  RandomSpec Spec;
  Spec.Seed = GetParam();
  // Vary the shape with the seed so different regimes are covered.
  Spec.NumVars = 40 + (GetParam() * 13) % 80;
  Spec.NumObjs = 8 + (GetParam() * 7) % 24;
  Spec.NumCopies = 60 + (GetParam() * 29) % 120;
  Spec.NumLoads = 10 + (GetParam() * 11) % 30;
  Spec.NumStores = 10 + (GetParam() * 17) % 30;
  Spec.NumCycles = GetParam() % 6;
  ConstraintSystem CS = generateRandom(Spec);

  PointsToSolution Oracle = solve(CS, SolverKind::Naive);
  for (auto [Kind, Repr] : allVariants()) {
    SolverStats Stats;
    PointsToSolution S = solve(CS, Kind, Repr, &Stats);
    EXPECT_TRUE(S == Oracle)
        << solverKindName(Kind) << "/"
        << (Repr == PtsRepr::Bitmap ? "bitmap" : "bdd")
        << " diverges from the oracle (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalence,
                         testing::Range<uint64_t>(1, 21));

class RandomEquivalenceWithOvs : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomEquivalenceWithOvs, OvsPreservesEverySolversSolution) {
  RandomSpec Spec;
  Spec.Seed = GetParam() * 101;
  Spec.NumVars = 60;
  Spec.NumCopies = 140; // Copy-heavy: more substitution opportunities.
  Spec.NumCycles = 4;
  ConstraintSystem CS = generateRandom(Spec);

  PointsToSolution Oracle = solve(CS, SolverKind::Naive);
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  EXPECT_LE(Ovs.Reduced.constraints().size(), CS.constraints().size());

  for (auto [Kind, Repr] : allVariants()) {
    PointsToSolution S =
        solve(Ovs.Reduced, Kind, Repr, nullptr, SolverOptions(), &Ovs.Rep);
    EXPECT_TRUE(S == Oracle)
        << solverKindName(Kind) << " after OVS diverges (seed "
        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceWithOvs,
                         testing::Range<uint64_t>(1, 13));

TEST(BenchmarkEquivalence, ProgramShapedWorkloadAllSolversAgree) {
  BenchmarkSpec Spec;
  Spec.Name = "mini";
  Spec.NumFunctions = 12;
  Spec.VarsPerFunction = 10;
  Spec.NumGlobals = 20;
  ConstraintSystem CS = generateBenchmark(Spec);
  ASSERT_GT(CS.constraints().size(), 100u);

  PointsToSolution Oracle = solve(CS, SolverKind::Naive);
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  for (auto [Kind, Repr] : allVariants()) {
    PointsToSolution Plain = solve(CS, Kind, Repr);
    EXPECT_TRUE(Plain == Oracle) << solverKindName(Kind);
    PointsToSolution Reduced =
        solve(Ovs.Reduced, Kind, Repr, nullptr, SolverOptions(), &Ovs.Rep);
    EXPECT_TRUE(Reduced == Oracle) << solverKindName(Kind) << " +OVS";
  }
}

TEST(WorklistEquivalence, PolicyDoesNotAffectSolution) {
  RandomSpec Spec;
  Spec.Seed = 999;
  ConstraintSystem CS = generateRandom(Spec);
  PointsToSolution Oracle = solve(CS, SolverKind::Naive);
  for (WorklistPolicy P : {WorklistPolicy::Fifo, WorklistPolicy::Lrf,
                           WorklistPolicy::DividedLrf}) {
    SolverOptions Opts;
    Opts.Worklist = P;
    EXPECT_TRUE(solve(CS, SolverKind::LCDHCD, PtsRepr::Bitmap, nullptr,
                      Opts) == Oracle);
    EXPECT_TRUE(solve(CS, SolverKind::HCD, PtsRepr::Bitmap, nullptr,
                      Opts) == Oracle);
  }
}

TEST(DiffResolutionAblation, FullRescanStillCorrect) {
  RandomSpec Spec;
  Spec.Seed = 4242;
  Spec.NumLoads = 25;
  Spec.NumStores = 25;
  ConstraintSystem CS = generateRandom(Spec);
  PointsToSolution Oracle = solve(CS, SolverKind::Naive);
  SolverOptions Opts;
  Opts.DifferenceResolution = false;
  for (SolverKind K : {SolverKind::PKH, SolverKind::LCD, SolverKind::HCD,
                       SolverKind::LCDHCD})
    EXPECT_TRUE(solve(CS, K, PtsRepr::Bitmap, nullptr, Opts) == Oracle)
        << solverKindName(K) << " with full rescans";
}

TEST(LcdAblation, RetriggerSuppressionOffStillCorrect) {
  RandomSpec Spec;
  Spec.Seed = 1234;
  Spec.NumCycles = 6;
  ConstraintSystem CS = generateRandom(Spec);
  PointsToSolution Oracle = solve(CS, SolverKind::Naive);
  SolverOptions Opts;
  Opts.LcdEdgeOnce = false;
  EXPECT_TRUE(solve(CS, SolverKind::LCD, PtsRepr::Bitmap, nullptr, Opts) ==
              Oracle);
}

TEST(StatsSanity, CountersBehaveAsDocumented) {
  BenchmarkSpec Spec;
  Spec.NumFunctions = 8;
  Spec.VarsPerFunction = 8;
  Spec.NumGlobals = 12;
  ConstraintSystem CS = generateBenchmark(Spec);

  SolverStats Lcd, Hcd, Pkh, Naive;
  solve(CS, SolverKind::LCD, PtsRepr::Bitmap, &Lcd);
  solve(CS, SolverKind::HCD, PtsRepr::Bitmap, &Hcd);
  solve(CS, SolverKind::PKH, PtsRepr::Bitmap, &Pkh);
  solve(CS, SolverKind::Naive, PtsRepr::Bitmap, &Naive);

  EXPECT_EQ(Hcd.NodesSearched, 0u)
      << "standalone HCD never traverses the graph";
  EXPECT_EQ(Naive.NodesCollapsed, 0u) << "naive never collapses";
  EXPECT_GT(Pkh.NodesCollapsed, 0u) << "cycle-rich workload must collapse";
  EXPECT_GT(Lcd.Propagations, 0u);
  EXPECT_GE(Naive.Propagations, Lcd.Propagations)
      << "cycle collapse reduces propagation work";
  EXPECT_FALSE(Lcd.toString("lcd.").empty());
}

} // namespace
