//===- CheckTest.cpp - Fixed-point checker and differential harness -------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SolutionChecker certification across the full solver matrix (every
/// kind, both set representations), detection of
/// seeded corruptions and budget-truncated partial solutions, the
/// fallback-superset contract, and the cross-solver differential harness
/// including automatic reproducer reduction.
///
//===----------------------------------------------------------------------===//

#include "check/Differential.h"
#include "check/SolutionChecker.h"

#include "constraints/OfflineVariableSubstitution.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace ag;

namespace {

ConstraintSystem checkBench() {
  BenchmarkSpec Spec;
  Spec.NumFunctions = 10;
  Spec.VarsPerFunction = 8;
  Spec.NumGlobals = 16;
  Spec.Seed = 11;
  return generateBenchmark(Spec);
}

TEST(SolutionChecker, CertifiesEverySolverKindAndRepr) {
  ConstraintSystem CS = checkBench();
  for (SolverKind Kind : AllSolverKinds) {
    PointsToSolution Sol = solveFnFor(Kind, PtsRepr::Bitmap)(CS);
    CheckReport R = checkSolution(CS, Sol);
    EXPECT_TRUE(R.ok()) << solverKindName(Kind) << ": " << R.summary(CS);
    EXPECT_EQ(R.ConstraintsChecked, CS.constraints().size());
    Sol = solveFnFor(Kind, PtsRepr::Bdd)(CS);
    R = checkSolution(CS, Sol);
    EXPECT_TRUE(R.ok()) << solverKindName(Kind) << " (BDD): "
                        << R.summary(CS);
  }
}

TEST(SolutionChecker, DetectsSeededCorruption) {
  ConstraintSystem CS = checkBench();
  PointsToSolution Sol = solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(CS);
  ASSERT_TRUE(checkSolution(CS, Sol).ok());

  // Empty the destination set of the first address-of constraint: the
  // checker must pin the exact rule, constraint, and missing witness.
  const std::vector<Constraint> &Cons = CS.constraints();
  size_t Idx = 0;
  while (Idx != Cons.size() && Cons[Idx].Kind != ConstraintKind::AddressOf)
    ++Idx;
  ASSERT_NE(Idx, Cons.size());
  Sol.mutableSet(Sol.repOf(Cons[Idx].Dst)) = SparseBitVector();

  CheckReport R = checkSolution(CS, Sol);
  ASSERT_FALSE(R.ok());
  bool FoundAddr = false;
  for (const CheckViolation &V : R.Violations)
    if (V.What == CheckViolation::Kind::AddressOf &&
        V.ConstraintIndex == Idx && V.Witness == Cons[Idx].Src)
      FoundAddr = true;
  EXPECT_TRUE(FoundAddr) << R.summary(CS);
  EXPECT_NE(R.summary(CS).find("FAILED"), std::string::npos);
  // toString names the rule and the missing object.
  EXPECT_NE(R.Violations.front().toString(CS).find("missing"),
            std::string::npos);
}

TEST(SolutionChecker, RejectsBudgetTruncatedPartialSolution) {
  ConstraintSystem CS = checkBench();
  SolveBudget Budget;
  Budget.MaxPropagations = 1;
  Budget.AllowFallback = false;
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  SolveResult R = solveGoverned(Ovs.Reduced, SolverKind::LCDHCD, Budget,
                                PtsRepr::Bitmap, nullptr, SolverOptions(),
                                &Ovs.Rep);
  ASSERT_EQ(R.Outcome, SolveOutcome::Partial);
  EXPECT_FALSE(checkSolution(CS, R.Solution).ok())
      << "a solution truncated after one propagation must not certify";
}

TEST(SolutionChecker, FallbackCertifiesAndIsStrictSuperset) {
  // a = &o1; b = &o2; c = a; c = b: the precise answer keeps pts(a)={o1},
  // while unification merges a, b and c — a sound strict superset.
  ConstraintSystem CS;
  NodeId A = CS.addNode("a"), O1 = CS.addNode("o1"), B = CS.addNode("b");
  NodeId O2 = CS.addNode("o2"), Cv = CS.addNode("c");
  CS.addAddressOf(A, O1);
  CS.addAddressOf(B, O2);
  CS.addCopy(Cv, A);
  CS.addCopy(Cv, B);

  PointsToSolution Precise =
      solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(CS);
  PointsToSolution Fb = steensgaardFallback(CS);

  EXPECT_TRUE(checkSolution(CS, Precise).ok());
  EXPECT_TRUE(checkSolution(CS, Fb).ok())
      << "the fallback is a fixed point too (a coarser one)";
  EXPECT_TRUE(checkSuperset(Fb, Precise).ok());

  // Unification pollutes pts(a) with o2, so the reverse containment must
  // fail, with a as the deficient node.
  CheckReport Rev = checkSuperset(Precise, Fb);
  ASSERT_FALSE(Rev.ok());
  EXPECT_EQ(Rev.Violations.front().What, CheckViolation::Kind::Superset);
  EXPECT_TRUE(Precise.pointsToObj(A, O1));
  EXPECT_FALSE(Precise.pointsToObj(A, O2));
  EXPECT_TRUE(Fb.pointsToObj(A, O2));
}

TEST(Differential, AgreeingSolversReportNoMismatch) {
  ConstraintSystem CS = checkBench();
  DifferentialReport R = runDifferential(
      CS, solveFnFor(SolverKind::HT, PtsRepr::Bitmap),
      solveFnFor(SolverKind::PKHHCD, PtsRepr::Bitmap));
  EXPECT_FALSE(R.Diff.Mismatch) << R.Diff.toString();
  EXPECT_EQ(R.SolverRuns, 2u);
  EXPECT_TRUE(R.ReductionComplete);
}

TEST(Differential, ReducerShrinksSeededBugToMinimalReproducer) {
  RandomSpec Spec;
  Spec.Seed = 23;
  Spec.NumVars = 40;
  Spec.NumObjs = 12;
  Spec.NumAddressOf = 30;
  Spec.NumCopies = 50;
  Spec.NumLoads = 10;
  Spec.NumStores = 10;
  ConstraintSystem CS = generateRandom(Spec);

  // Seeded bug: solver B silently ignores one specific copy constraint —
  // the classic shape of a lost-propagation defect. Pick a copy whose
  // removal actually changes the solution; random systems contain dead
  // copies whose loss other paths mask.
  SolveFn Good = solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap);
  const uint64_t GoodHash = Good(CS).hash();
  const std::vector<Constraint> &Cons = CS.constraints();
  size_t BugIdx = Cons.size();
  for (size_t I = 0; I != Cons.size() && BugIdx == Cons.size(); ++I) {
    if (Cons[I].Kind != ConstraintKind::Copy)
      continue;
    ConstraintSystem Pruned = CS.cloneNodeTable();
    for (size_t J = 0; J != Cons.size(); ++J)
      if (J != I)
        Pruned.add(Cons[J]);
    if (Good(Pruned).hash() != GoodHash)
      BugIdx = I;
  }
  ASSERT_NE(BugIdx, Cons.size()) << "no live copy constraint in workload";
  const Constraint Dropped = Cons[BugIdx];

  SolveFn Bad = [&, Good](const ConstraintSystem &Sys) {
    ConstraintSystem Pruned = Sys.cloneNodeTable();
    for (const Constraint &C : Sys.constraints())
      if (!(C.Kind == Dropped.Kind && C.Dst == Dropped.Dst &&
            C.Src == Dropped.Src && C.Offset == Dropped.Offset))
        Pruned.add(C);
    return Good(Pruned);
  };

  DifferentialReport R = runDifferential(CS, Good, Bad);
  ASSERT_TRUE(R.Diff.Mismatch)
      << "dropping a live copy constraint must change the solution";
  EXPECT_TRUE(R.ReductionComplete);
  EXPECT_TRUE(R.ReducedDiff.Mismatch)
      << "the reproducer must preserve the divergence";
  EXPECT_LT(R.Reduced.constraints().size(), CS.constraints().size())
      << "the reducer removed nothing";
  // The buggy constraint itself must survive reduction — without it the
  // two solvers agree.
  bool Survives = false;
  for (const Constraint &C : R.Reduced.constraints())
    if (C.Kind == Dropped.Kind && C.Dst == Dropped.Dst &&
        C.Src == Dropped.Src && C.Offset == Dropped.Offset)
      Survives = true;
  EXPECT_TRUE(Survives);
  // A reproducer this shape typically collapses to a handful of
  // constraints; assert a loose bound so regressions in the reducer show.
  EXPECT_LE(R.Reduced.constraints().size(), 12u)
      << "reduction quality regressed";
}

TEST(Differential, DiffReportsSymmetricDifference) {
  ConstraintSystem CS;
  NodeId A = CS.addNode("a"), O1 = CS.addNode("o1"), O2 = CS.addNode("o2");
  CS.addAddressOf(A, O1);
  (void)O2;
  PointsToSolution X = solveFnFor(SolverKind::HT, PtsRepr::Bitmap)(CS);
  PointsToSolution Y = X;
  Y.mutableSet(Y.repOf(A)).set(O2);
  DiffResult D = diffSolutions(X, Y);
  ASSERT_TRUE(D.Mismatch);
  EXPECT_EQ(D.Node, A);
  ASSERT_EQ(D.OnlyInB.size(), 1u);
  EXPECT_EQ(D.OnlyInB.front(), O2);
  EXPECT_NE(D.toString().find("only-B"), std::string::npos);
}

#ifdef AG_PTATOOL_PATH

int runPtatoolCheck(const std::string &Args) {
  std::string Cmd = std::string(AG_PTATOOL_PATH) + " " + Args;
  int Raw = std::system(Cmd.c_str());
  return WEXITSTATUS(Raw);
}

TEST(PtatoolCheck, CertifiesConsAndSnapshotInputs) {
  std::string Dir = ::testing::TempDir();
  std::string Cons = Dir + "check_e2e.cons";
  std::string Snap = Dir + "check_e2e.snap";
  ConstraintSystem CS = checkBench();
  ASSERT_TRUE(CS.writeToFile(Cons));

  EXPECT_EQ(runPtatoolCheck("check " + Cons + " > /dev/null"), 0);
  EXPECT_EQ(runPtatoolCheck("check " + Cons + " PKH > /dev/null"), 0);
  // The differential-CI shape: every kind, cross-compared.
  EXPECT_EQ(runPtatoolCheck("check " + Cons + " --all > /dev/null"), 0);

  ASSERT_EQ(runPtatoolCheck("snapshot " + Cons + " " + Snap + " > /dev/null"),
            0);
  EXPECT_EQ(runPtatoolCheck("check " + Snap + " > /dev/null"), 0);

  EXPECT_EQ(runPtatoolCheck("check /nonexistent/nope.cons > /dev/null "
                            "2> /dev/null"),
            1);
}

#endif // AG_PTATOOL_PATH

} // namespace
