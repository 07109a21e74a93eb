//===- IncrementalSolverTest.cpp - Warm-start re-solving tests ------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The warm-start contract: re-solving a snapshot plus a constraint delta
/// equals a cold solve of the full system seeded with the snapshot's
/// offline map (see IncrementalSolver.h for why that is the exact
/// baseline) — across generated suites, under repeated folded deltas,
/// and byte-for-byte under budget trips. Plus the
/// structured-error paths: invalid deltas, mismatched node tables, and
/// non-precise snapshots.
///
//===----------------------------------------------------------------------===//

#include "serve/IncrementalSolver.h"

#include "constraints/OfflineVariableSubstitution.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

#include <vector>

using namespace ag;

namespace {

Snapshot makeSnapshot(const ConstraintSystem &CS,
                      SolverKind Kind = SolverKind::LCDHCD) {
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  Snapshot Snap;
  Snap.Solution = solve(Ovs.Reduced, Kind, PtsRepr::Bitmap, nullptr,
                        SolverOptions(), &Ovs.Rep);
  Snap.CS = std::move(Ovs.Reduced);
  Snap.SeedReps = std::move(Ovs.Rep);
  Snap.Kind = Kind;
  return Snap;
}

ConstraintSystem suiteSystem(uint64_t Seed) {
  BenchmarkSpec Spec;
  Spec.Seed = Seed;
  Spec.NumFunctions = 12;
  Spec.VarsPerFunction = 8;
  Spec.NumGlobals = 24;
  return generateBenchmark(Spec);
}

/// The cold baseline the warm solve must match: the snapshot's (reduced)
/// system plus the delta, added in the same order, solved from scratch
/// seeded with the snapshot's offline map.
ConstraintSystem fullSystem(const Snapshot &Snap,
                            const std::vector<Constraint> &Delta) {
  ConstraintSystem Full = Snap.CS;
  for (const Constraint &C : Delta)
    Full.add(C);
  return Full;
}

SolveBudget expiredDeadline() {
  SolveBudget B;
  B.TimeoutSeconds = 1e-9;
  B.CheckIntervalOps = 1;
  return B;
}

TEST(WarmStart, EqualsColdSolveOfFullSystem) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    ConstraintSystem Full = suiteSystem(Seed);
    DeltaSplit Split = splitDelta(Full, 0.15, Seed * 17 + 1);
    Snapshot Snap = makeSnapshot(Split.Base);
    ConstraintSystem FullCS = fullSystem(Snap, Split.Delta);
    std::vector<NodeId> Seeds = Snap.SeedReps;
    PointsToSolution Cold = solve(FullCS, SolverKind::LCDHCD, PtsRepr::Bitmap,
                                  nullptr, SolverOptions(), &Seeds);

    IncrementalSolver Inc(std::move(Snap));
    ASSERT_TRUE(Inc.valid().ok());
    WarmStartResult R = Inc.resolve(Split.Delta);
    ASSERT_EQ(R.Outcome, SolveOutcome::Precise) << R.St.toString();
    EXPECT_TRUE(R.Sound);
    EXPECT_TRUE(R.St.ok());
    EXPECT_GT(R.NewConstraints, 0u);
    EXPECT_GT(R.SeededNodes, 0u);
    EXPECT_TRUE(R.Solution == Cold) << "seed " << Seed;
    EXPECT_EQ(R.Solution.hash(), Cold.hash());

    // Precise results fold: the held snapshot now covers the full system.
    EXPECT_TRUE(Inc.solution() == Cold);
    EXPECT_EQ(Inc.system().constraints().size(), FullCS.constraints().size());
  }
}

TEST(WarmStart, RepeatedDeltasCompose) {
  ConstraintSystem Full = suiteSystem(5);
  DeltaSplit Split = splitDelta(Full, 0.2, 99);
  size_t Half = Split.Delta.size() / 2;
  std::vector<Constraint> First(Split.Delta.begin(),
                                Split.Delta.begin() + Half);
  std::vector<Constraint> Second(Split.Delta.begin() + Half,
                                 Split.Delta.end());
  ASSERT_FALSE(First.empty());
  ASSERT_FALSE(Second.empty());

  Snapshot Snap = makeSnapshot(Split.Base);
  ConstraintSystem FullCS = fullSystem(Snap, Split.Delta);
  std::vector<NodeId> Seeds = Snap.SeedReps;
  PointsToSolution Cold = solve(FullCS, SolverKind::LCDHCD, PtsRepr::Bitmap,
                                nullptr, SolverOptions(), &Seeds);

  IncrementalSolver Inc(std::move(Snap));
  ASSERT_EQ(Inc.resolve(First).Outcome, SolveOutcome::Precise);
  WarmStartResult R = Inc.resolve(Second);
  ASSERT_EQ(R.Outcome, SolveOutcome::Precise);
  EXPECT_TRUE(R.Solution == Cold);
  EXPECT_TRUE(Inc.solution() == Cold);
}

TEST(WarmStart, BudgetTripFallsBackExactlyLikeColdSolve) {
  ConstraintSystem Full = suiteSystem(7);
  DeltaSplit Split = splitDelta(Full, 0.2, 7);
  Snapshot Snap = makeSnapshot(Split.Base);
  ConstraintSystem FullCS = fullSystem(Snap, Split.Delta);
  std::vector<NodeId> Seeds = Snap.SeedReps;
  PointsToSolution BaseSolution = Snap.Solution;

  SolveResult Cold =
      solveGoverned(FullCS, SolverKind::LCDHCD, expiredDeadline(),
                    PtsRepr::Bitmap, nullptr, SolverOptions(), &Seeds);
  ASSERT_EQ(Cold.Outcome, SolveOutcome::Fallback);

  IncrementalSolver Inc(std::move(Snap));
  WarmStartResult R = Inc.resolve(Split.Delta, expiredDeadline());
  ASSERT_EQ(R.Outcome, SolveOutcome::Fallback);
  EXPECT_TRUE(R.Sound);
  EXPECT_TRUE(R.St.isBudgetTrip());
  EXPECT_TRUE(R.Solution == Cold.Solution)
      << "tripped warm and tripped cold must degrade identically";

  // Fallback results are not fixpoints and must NOT fold into the held
  // snapshot; the same delta re-solved with a real budget is precise.
  EXPECT_TRUE(Inc.solution() == BaseSolution);
  WarmStartResult Retry = Inc.resolve(Split.Delta);
  ASSERT_EQ(Retry.Outcome, SolveOutcome::Precise);
  PointsToSolution Precise = solve(FullCS, SolverKind::LCDHCD, PtsRepr::Bitmap,
                                   nullptr, SolverOptions(), &Seeds);
  EXPECT_TRUE(Retry.Solution == Precise);
}

TEST(WarmStart, NoFallbackYieldsUnsoundPartial) {
  ConstraintSystem Full = suiteSystem(9);
  DeltaSplit Split = splitDelta(Full, 0.2, 9);
  Snapshot Snap = makeSnapshot(Split.Base);
  PointsToSolution BaseSolution = Snap.Solution;
  IncrementalSolver Inc(std::move(Snap));
  SolveBudget B = expiredDeadline();
  B.AllowFallback = false;
  WarmStartResult R = Inc.resolve(Split.Delta, B);
  ASSERT_EQ(R.Outcome, SolveOutcome::Partial);
  EXPECT_FALSE(R.Sound);
  EXPECT_TRUE(R.St.isBudgetTrip());
  EXPECT_TRUE(Inc.solution() == BaseSolution) << "partial must not fold";
}

TEST(IncrementalSolver, EmptyDeltaFastPath) {
  Snapshot Snap = makeSnapshot(suiteSystem(11));
  PointsToSolution Base = Snap.Solution;
  IncrementalSolver Inc(std::move(Snap));
  WarmStartResult R = Inc.resolve({});
  ASSERT_EQ(R.Outcome, SolveOutcome::Precise);
  EXPECT_EQ(R.NewConstraints, 0u);
  EXPECT_EQ(R.SeededNodes, 0u);
  EXPECT_TRUE(R.Solution == Base);
}

TEST(IncrementalSolver, DuplicateDeltaIsANoOp) {
  ConstraintSystem Full = suiteSystem(13);
  Snapshot Snap = makeSnapshot(Full);
  PointsToSolution Base = Snap.Solution;
  // Re-submit constraints the base already has (post-OVS form, so they
  // dedup against the snapshot's system).
  std::vector<Constraint> Dup(Snap.CS.constraints().begin(),
                              Snap.CS.constraints().begin() + 10);
  IncrementalSolver Inc(std::move(Snap));
  WarmStartResult R = Inc.resolve(Dup);
  ASSERT_EQ(R.Outcome, SolveOutcome::Precise);
  EXPECT_EQ(R.NewConstraints, 0u);
  EXPECT_TRUE(R.Solution == Base);
}

TEST(IncrementalSolver, InvalidDeltaIsAStructuredFailure) {
  Snapshot Snap = makeSnapshot(suiteSystem(15));
  NodeId Bad = Snap.CS.numNodes();
  IncrementalSolver Inc(std::move(Snap));
  WarmStartResult R =
      Inc.resolve({Constraint(ConstraintKind::Copy, Bad, 0)});
  EXPECT_EQ(R.Outcome, SolveOutcome::Failed);
  EXPECT_EQ(R.St.code(), StatusCode::InvalidArgument);
  EXPECT_FALSE(R.Sound);
}

TEST(IncrementalSolver, AddNodeExtendsTheSystem) {
  Snapshot Snap = makeSnapshot(suiteSystem(17));
  std::vector<NodeId> Seeds = Snap.SeedReps;
  IncrementalSolver Inc(std::move(Snap));
  NodeId P = Inc.addNode("fresh_ptr");
  NodeId O = Inc.addNode("fresh_obj");
  std::vector<Constraint> Delta = {
      Constraint(ConstraintKind::AddressOf, P, O),
      Constraint(ConstraintKind::Copy, 0, P)};
  WarmStartResult R = Inc.resolve(Delta);
  ASSERT_EQ(R.Outcome, SolveOutcome::Precise) << R.St.toString();
  EXPECT_TRUE(R.Solution.pointsToObj(P, O));
  EXPECT_TRUE(R.Solution.pointsToObj(0, O));

  // Cold baseline over the extended system: identity seeds for new ids.
  for (NodeId V = static_cast<NodeId>(Seeds.size());
       V != Inc.system().numNodes(); ++V)
    Seeds.push_back(V);
  PointsToSolution Cold = solve(Inc.system(), SolverKind::LCDHCD,
                                PtsRepr::Bitmap, nullptr, SolverOptions(),
                                &Seeds);
  EXPECT_TRUE(R.Solution == Cold);
}

TEST(IncrementalSolver, DeltaTakesAddressOfALowNonObject) {
  // x has the lowest id and is a pointer in the base, never an object.
  // The delta makes it one: the bitmap policy appends it after the
  // base's objects, out of ascending order.
  ConstraintSystem Base;
  NodeId X = Base.addNode("x"), P = Base.addNode("p"), Q = Base.addNode("q"),
         R = Base.addNode("r"), S = Base.addNode("s"), A = Base.addNode("a"),
         B = Base.addNode("b"), C = Base.addNode("c");
  Base.addAddressOf(X, A);
  Base.addAddressOf(P, B);
  Base.addCopy(Q, P);
  Base.addLoad(R, Q);
  Base.addAddressOf(S, C);
  Base.addStore(P, S);
  Snapshot Snap = makeSnapshot(Base);
  const std::vector<Constraint> Delta = {
      Constraint(ConstraintKind::AddressOf, P, X)};
  ConstraintSystem FullCS = fullSystem(Snap, Delta);
  std::vector<NodeId> Seeds = Snap.SeedReps;
  PointsToSolution Cold = solve(FullCS, SolverKind::LCDHCD, PtsRepr::Bitmap,
                                nullptr, SolverOptions(), &Seeds);

  IncrementalSolver Inc(std::move(Snap));
  WarmStartResult W = Inc.resolve(Delta);
  ASSERT_EQ(W.Outcome, SolveOutcome::Precise) << W.St.toString();
  EXPECT_TRUE(W.Solution.pointsToObj(Q, X));
  EXPECT_TRUE(W.Solution.pointsToObj(R, A)) << "loads through x";
  EXPECT_TRUE(W.Solution.pointsToObj(X, C)) << "stores through x";
  EXPECT_TRUE(W.Solution == Cold);
}

TEST(IncrementalSolver, ResolveSystemAdoptsExtendedNodeTable) {
  ConstraintSystem Base;
  NodeId F = Base.addFunction("f", 2);
  NodeId P = Base.addNode("p");
  NodeId O = Base.addNode("o", 2);
  Base.addAddressOf(P, O);
  Snapshot Snap = makeSnapshot(Base);
  std::vector<NodeId> Seeds = Snap.SeedReps;
  IncrementalSolver Inc(std::move(Snap));

  // The delta file: same table, plus a new function and a new pointer
  // that targets both functions.
  ConstraintSystem DeltaCS = Base.cloneNodeTable();
  NodeId G = DeltaCS.addFunction("g", 1);
  NodeId Fp = DeltaCS.addNode("fp");
  DeltaCS.addAddressOf(Fp, F);
  DeltaCS.addAddressOf(Fp, G);
  WarmStartResult R = Inc.resolveSystem(DeltaCS);
  ASSERT_EQ(R.Outcome, SolveOutcome::Precise) << R.St.toString();

  const ConstraintSystem &Cur = Inc.system();
  ASSERT_EQ(Cur.numNodes(), DeltaCS.numNodes());
  EXPECT_TRUE(Cur.isFunction(G));
  EXPECT_EQ(Cur.nameOf(G), "g");
  EXPECT_EQ(Cur.nameOf(Fp), "fp");
  EXPECT_EQ(Cur.sizeOf(G), DeltaCS.sizeOf(G));
  EXPECT_TRUE(R.Solution.pointsToObj(Fp, F));
  EXPECT_TRUE(R.Solution.pointsToObj(Fp, G));

  for (NodeId V = static_cast<NodeId>(Seeds.size()); V != Cur.numNodes(); ++V)
    Seeds.push_back(V);
  PointsToSolution Cold = solve(Cur, SolverKind::LCDHCD, PtsRepr::Bitmap,
                                nullptr, SolverOptions(), &Seeds);
  EXPECT_TRUE(R.Solution == Cold);
}

TEST(IncrementalSolver, ResolveSystemRejectsMismatchedTables) {
  ConstraintSystem Base;
  Base.addNode("p");
  Base.addNode("o", 2);
  Snapshot Snap = makeSnapshot(Base);
  IncrementalSolver Inc(std::move(Snap));

  ConstraintSystem Shrunk; // Fewer nodes than the snapshot.
  Shrunk.addNode("p");
  WarmStartResult R1 = Inc.resolveSystem(Shrunk);
  EXPECT_EQ(R1.Outcome, SolveOutcome::Failed);
  EXPECT_EQ(R1.St.code(), StatusCode::InvalidArgument);

  ConstraintSystem WrongSize; // Same count, different node shape.
  WrongSize.addNode("p", 3);
  WrongSize.addNode("o");
  WrongSize.addNode("x");
  WarmStartResult R2 = Inc.resolveSystem(WrongSize);
  EXPECT_EQ(R2.Outcome, SolveOutcome::Failed);
  EXPECT_EQ(R2.St.code(), StatusCode::InvalidArgument);
}

TEST(IncrementalSolver, NonPreciseSnapshotsAreRejected) {
  Snapshot Snap = makeSnapshot(suiteSystem(19));
  Snap.Outcome = SolveOutcome::Fallback;
  IncrementalSolver Inc(std::move(Snap));
  EXPECT_FALSE(Inc.valid().ok());
  EXPECT_EQ(Inc.valid().code(), StatusCode::InvalidArgument);
  WarmStartResult R = Inc.resolve({});
  EXPECT_EQ(R.Outcome, SolveOutcome::Failed);
}

} // namespace
