//===- GovernorTest.cpp - Resource-governed solving tests -----------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Proves every solver kind honors the SolveBudget contract: deadline,
/// memory-cap, step and edge ceilings, cooperative cancellation, and fault
/// injection all abort the precise solve cleanly, and the Steensgaard
/// fallback solution is a superset of the untripped precise solution. Also
/// covers the ptatool driver's documented exit codes end to end.
///
//===----------------------------------------------------------------------===//

#include "solvers/Solve.h"

#include "adt/FaultInjector.h"
#include "adt/Status.h"
#include "constraints/OfflineVariableSubstitution.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

using namespace ag;

namespace {

ConstraintSystem testSystem() {
  BenchmarkSpec Spec;
  Spec.NumFunctions = 10;
  Spec.VarsPerFunction = 8;
  Spec.NumGlobals = 16;
  return generateBenchmark(Spec);
}

/// A budget whose step ceiling trips almost immediately on any non-trivial
/// system, with per-operation checking so the trip point is deterministic.
SolveBudget tightStepBudget() {
  SolveBudget B;
  B.MaxPropagations = 1;
  B.CheckIntervalOps = 1;
  return B;
}

void expectSuperset(const PointsToSolution &Big, const PointsToSolution &Small,
                    uint32_t NumNodes) {
  for (NodeId V = 0; V != NumNodes; ++V)
    EXPECT_TRUE(Big.pointsTo(V).contains(Small.pointsTo(V)))
        << "node " << V << " lost points-to members in the fallback";
}

class GovernedSolve : public ::testing::TestWithParam<SolverKind> {
protected:
  void TearDown() override { FaultInjector::instance().disarmAll(); }
};

TEST_P(GovernedSolve, DefaultBudgetSolvesPrecisely) {
  ConstraintSystem CS = testSystem();
  PointsToSolution Ungoverned = solve(CS, GetParam());
  SolveResult R = solveGoverned(CS, GetParam());
  ASSERT_EQ(R.Outcome, SolveOutcome::Precise);
  EXPECT_TRUE(R.Sound);
  EXPECT_TRUE(R.St.ok());
  EXPECT_FALSE(R.usedFallback());
  EXPECT_EQ(R.Solution.hash(), Ungoverned.hash());
}

TEST_P(GovernedSolve, StepBudgetTripsToFallbackSuperset) {
  ConstraintSystem CS = testSystem();
  PointsToSolution Precise = solve(CS, GetParam());
  SolveResult R = solveGoverned(CS, GetParam(), tightStepBudget());
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  EXPECT_TRUE(R.Sound);
  EXPECT_TRUE(R.usedFallback());
  ASSERT_TRUE(R.St.isBudgetTrip());
  EXPECT_EQ(R.St.code(), StatusCode::StepLimit);
  expectSuperset(R.Solution, Precise, CS.numNodes());
}

TEST_P(GovernedSolve, FallbackComposesSeedRepresentatives) {
  // The production path (ptatool) seeds solvers with OVS representatives;
  // the fallback must fold those classes back in or substituted variables
  // would come back with empty sets.
  ConstraintSystem CS = testSystem();
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  PointsToSolution Precise = solve(Ovs.Reduced, GetParam(), PtsRepr::Bitmap,
                                   nullptr, SolverOptions(), &Ovs.Rep);
  SolveResult R =
      solveGoverned(Ovs.Reduced, GetParam(), tightStepBudget(),
                    PtsRepr::Bitmap, nullptr, SolverOptions(), &Ovs.Rep);
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  expectSuperset(R.Solution, Precise, Ovs.Reduced.numNodes());
}

TEST_P(GovernedSolve, ExpiredDeadlineTripsBeforeRealWork) {
  ConstraintSystem CS = testSystem();
  SolveBudget B;
  B.TimeoutSeconds = 1e-9; // Expired by the governor's first check.
  SolveResult R = solveGoverned(CS, GetParam(), B);
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  EXPECT_EQ(R.St.code(), StatusCode::DeadlineExceeded);
  EXPECT_TRUE(R.Sound);
}

TEST_P(GovernedSolve, MemoryCapTrips) {
  ConstraintSystem CS = testSystem();
  SolveBudget B;
  B.MaxMemoryBytes = 1; // Any live tracked allocation exceeds this.
  B.CheckIntervalOps = 1;
  SolveResult R = solveGoverned(CS, GetParam(), B);
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  EXPECT_EQ(R.St.code(), StatusCode::MemoryLimit);
}

TEST_P(GovernedSolve, EdgeBudgetTrips) {
  SolverKind Kind = GetParam();
  if (Kind == SolverKind::BLQ || Kind == SolverKind::BLQHCD)
    GTEST_SKIP() << "BLQ keeps edges as one BDD relation (documented)";
  ConstraintSystem CS = testSystem();
  SolveBudget B;
  B.MaxEdges = 1;
  B.CheckIntervalOps = 1;
  SolveResult R = solveGoverned(CS, Kind, B);
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  EXPECT_EQ(R.St.code(), StatusCode::StepLimit);
}

TEST_P(GovernedSolve, NoFallbackYieldsUnsoundPartial) {
  ConstraintSystem CS = testSystem();
  SolveBudget B = tightStepBudget();
  B.AllowFallback = false;
  SolveResult R = solveGoverned(CS, GetParam(), B);
  ASSERT_EQ(R.Outcome, SolveOutcome::Partial);
  EXPECT_FALSE(R.Sound);
  EXPECT_FALSE(R.usedFallback());
  EXPECT_TRUE(R.St.isBudgetTrip());
}

TEST_P(GovernedSolve, PreCancelledTokenAborts) {
  ConstraintSystem CS = testSystem();
  SolveBudget B;
  B.Cancel = CancelToken::create();
  B.Cancel.requestCancel();
  SolveResult R = solveGoverned(CS, GetParam(), B);
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  EXPECT_EQ(R.St.code(), StatusCode::Cancelled);
}

TEST_P(GovernedSolve, GovernorCheckFaultInjection) {
  ConstraintSystem CS = testSystem();
  FaultInjector::instance().armAfter(FaultSite::GovernorCheck,
                                     /*Countdown=*/0);
  SolveBudget B;
  B.CheckIntervalOps = 1;
  SolveResult R = solveGoverned(CS, GetParam(), B);
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  EXPECT_EQ(R.St.code(), StatusCode::FaultInjected);
}

TEST_P(GovernedSolve, AllocationFaultLatchesIntoCleanTrip) {
  ConstraintSystem CS = testSystem();
  FaultInjector::instance().armAfter(FaultSite::Allocation, /*Countdown=*/0);
  SolveBudget B;
  B.CheckIntervalOps = 1;
  SolveResult R = solveGoverned(CS, GetParam(), B);
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  EXPECT_EQ(R.St.code(), StatusCode::MemoryLimit);
  EXPECT_NE(R.St.message().find("injected"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, GovernedSolve,
    ::testing::Values(SolverKind::Naive, SolverKind::HT, SolverKind::PKH,
                      SolverKind::BLQ, SolverKind::LCD, SolverKind::HCD,
                      SolverKind::HTHCD, SolverKind::PKHHCD,
                      SolverKind::BLQHCD, SolverKind::LCDHCD),
    [](const ::testing::TestParamInfo<SolverKind> &Info) {
      std::string Name = solverKindName(Info.param);
      for (char &C : Name)
        if (C == '+')
          C = '_';
      return Name;
    });

TEST(GovernedSolveErrors, InvalidKindIsAStructuredFailure) {
  ConstraintSystem CS = testSystem();
  SolverKind Bogus = static_cast<SolverKind>(99);
  EXPECT_FALSE(isValidSolverKind(Bogus));
  EXPECT_STREQ(solverKindName(Bogus), "?");
  SolveResult R = solveGoverned(CS, Bogus);
  EXPECT_EQ(R.Outcome, SolveOutcome::Failed);
  EXPECT_FALSE(R.Sound);
  EXPECT_EQ(R.St.code(), StatusCode::InvalidArgument);
}

TEST(GovernedSolveErrors, MisSizedSeedTableIsAStructuredFailure) {
  ConstraintSystem CS = testSystem();
  std::vector<NodeId> BadSeeds(3, 0); // Wrong length for this system.
  SolveResult R = solveGoverned(CS, SolverKind::LCDHCD, SolveBudget(),
                                PtsRepr::Bitmap, nullptr, SolverOptions(),
                                &BadSeeds);
  EXPECT_EQ(R.Outcome, SolveOutcome::Failed);
  EXPECT_EQ(R.St.code(), StatusCode::InvalidArgument);
}

TEST(GovernedSolveErrors, MidSolveCancellationFromToken) {
  // Cancel after the solve has already started: arm a countdown fault on
  // the governor check to prove checks keep happening, then rely on the
  // token read at the same checkpoint. Simpler: request cancel from a
  // token shared with the budget before the first checkpoint fires.
  ConstraintSystem CS = testSystem();
  CancelToken Token = CancelToken::create();
  SolveBudget B;
  B.Cancel = Token;
  B.CheckIntervalOps = 1;
  Token.requestCancel();
  SolveResult R = solveGoverned(CS, SolverKind::PKH, B);
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  EXPECT_EQ(R.St.code(), StatusCode::Cancelled);
}

#ifdef AG_PTATOOL_PATH

/// Runs ptatool with \p Args and returns its exit code.
int runPtatool(const std::string &Args) {
  std::string Cmd = std::string(AG_PTATOOL_PATH) + " " + Args +
                    " > /dev/null 2> /dev/null";
  int Raw = std::system(Cmd.c_str());
  return WEXITSTATUS(Raw);
}

class PtatoolExitCodes : public ::testing::Test {
protected:
  void SetUp() override {
    // Unique per test case: ctest runs cases as parallel processes, and
    // a shared path would race (one process rewriting while another's
    // ptatool child reads a truncated file).
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    ConsPath = ::testing::TempDir() + "governor_tool_" +
               std::string(Info->name()) + ".cons";
    ConstraintSystem CS = testSystem();
    ASSERT_TRUE(CS.writeToFile(ConsPath));
  }
  std::string ConsPath;
};

TEST_F(PtatoolExitCodes, PreciseSolveExitsZero) {
  EXPECT_EQ(runPtatool("solve " + ConsPath + " PKH"), 0);
}

TEST_F(PtatoolExitCodes, TimeoutExitsFallbackCode) {
  EXPECT_EQ(runPtatool("solve " + ConsPath + " PKH --timeout 1e-9"), 3);
}

TEST_F(PtatoolExitCodes, TimeoutNoFallbackExitsPartialCode) {
  EXPECT_EQ(
      runPtatool("solve " + ConsPath + " PKH --timeout 1e-9 --no-fallback"),
      4);
}

TEST_F(PtatoolExitCodes, MaxStepsTripsEveryAlgorithm) {
  for (SolverKind K : AllSolverKinds)
    EXPECT_EQ(runPtatool("solve " + ConsPath + " " +
                         std::string(solverKindName(K)) + " --max-steps 1"),
              3)
        << solverKindName(K);
}

TEST_F(PtatoolExitCodes, MissingFileExitsError) {
  EXPECT_EQ(runPtatool("solve /nonexistent/missing.cons"), 1);
}

TEST_F(PtatoolExitCodes, MalformedFileExitsError) {
  std::string Bad = ::testing::TempDir() + "governor_tool_malformed.cons";
  std::ofstream(Bad) << "node 0 1 p\ncopy 0 7\n";
  EXPECT_EQ(runPtatool("solve " + Bad), 1);
}

TEST_F(PtatoolExitCodes, UnknownFlagExitsUsage) {
  EXPECT_EQ(runPtatool("solve " + ConsPath + " --frobnicate"), 2);
  // Flags and fault sites of the removed parallel solver are unknown
  // input now, not silently ignored. (Exit code 5 stays reserved.)
  EXPECT_EQ(runPtatool("solve " + ConsPath + " --threads 4"), 2);
  EXPECT_EQ(runPtatool("solve " + ConsPath + " --stall-timeout 1"), 2);
  EXPECT_EQ(runPtatool("check " + ConsPath + " --all --threads 4"), 2);
  EXPECT_EQ(
      runPtatool("solve " + ConsPath + " --inject-fault worker_stall"), 2);
  EXPECT_EQ(
      runPtatool("solve " + ConsPath + " --inject-fault worker_stall:0"), 2);
  // A live site in the same position still parses.
  EXPECT_EQ(
      runPtatool("solve " + ConsPath + " --inject-fault snapshot_write:0"),
      0);
}

TEST_F(PtatoolExitCodes, BadBudgetValueExitsUsage) {
  EXPECT_EQ(runPtatool("solve " + ConsPath + " --timeout banana"), 2);
  EXPECT_EQ(runPtatool("solve " + ConsPath + " --timeout -1"), 2);
  EXPECT_EQ(runPtatool("solve " + ConsPath + " --max-mem-mb 0"), 2);
  EXPECT_EQ(runPtatool("solve " + ConsPath + " --max-steps"), 2);
}

TEST_F(PtatoolExitCodes, GenRejectsBadScale) {
  std::string Dir = ::testing::TempDir();
  EXPECT_EQ(runPtatool("gen " + Dir + " nan"), 1);
  EXPECT_EQ(runPtatool("gen " + Dir + " 0"), 1);
  EXPECT_EQ(runPtatool("gen " + Dir + " -2"), 1);
  EXPECT_EQ(runPtatool("gen " + Dir + " 1e30"), 1);
  EXPECT_EQ(runPtatool("gen " + Dir + " 0.5x"), 1);
}

#endif // AG_PTATOOL_PATH

} // namespace
