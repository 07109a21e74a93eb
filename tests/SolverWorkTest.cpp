//===- SolverWorkTest.cpp - Work the solvers skip, and what it must keep --===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two cuts of no-op solver work, each pinned by the property that makes
/// it exact:
///  * complex-constraint resolution tries an offset-0 deref once per
///    target representative per pass — but fields (non-zero offsets) of
///    objects that share a representative need not share one, so those
///    keep one attempt per element;
///  * LCD skips pops with nothing pending, so every trigger probe
///    follows a propagation that changed nothing (Figure 2 probes only
///    when a node is popped because its set changed).
///
//===----------------------------------------------------------------------===//

#include "check/SolutionChecker.h"
#include "constraints/OfflineVariableSubstitution.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

using namespace ag;

namespace {

/// Two size-2 objects o1, o2 whose base slots form a copy cycle (so
/// cycle-collapsing solvers merge them) while their fields o1+1 and
/// o2+1 hold distinct sets, read and written through p + 1 with
/// pts(p) = {o1, o2}. pts(p) reaches p along a copy chain, so the
/// collapse happens before p's derefs are first resolved.
struct CollapsedFields {
  ConstraintSystem CS;
  NodeId O1, O2, X, Y, P;
};

CollapsedFields collapsedFields() {
  CollapsedFields F;
  ConstraintSystem &CS = F.CS;
  F.O1 = CS.addNode("o1", 2);
  F.O2 = CS.addNode("o2", 2);
  CS.addAddressOf(F.O1, CS.addNode("t"));
  CS.addCopy(F.O2, F.O1);
  CS.addCopy(F.O1, F.O2);
  CS.addAddressOf(F.O1 + 1, CS.addNode("f1"));
  CS.addAddressOf(F.O2 + 1, CS.addNode("f2"));
  NodeId Chain = CS.addNode("p0");
  CS.addAddressOf(Chain, F.O1);
  CS.addAddressOf(Chain, F.O2);
  for (int I = 1; I != 8; ++I) {
    NodeId Next = CS.addNode("p" + std::to_string(I));
    CS.addCopy(Next, Chain);
    Chain = Next;
  }
  F.P = Chain;
  F.X = CS.addNode("x");
  F.Y = CS.addNode("y");
  CS.addAddressOf(F.Y, CS.addNode("g"));
  CS.addLoad(F.X, F.P, 1);  // x = *(p + 1)
  CS.addStore(F.P, F.Y, 1); // *(p + 1) = y
  return F;
}

TEST(ResolveDedup, FieldsOfCollapsedObjectsAreResolvedPerElement) {
  CollapsedFields F = collapsedFields();
  // HT resolves derefs in its own loop, outside SolverContext, so it is
  // an independent oracle here; Naive shares the resolution code.
  PointsToSolution Oracle = solve(F.CS, SolverKind::HT);
  ASSERT_TRUE(checkSolution(F.CS, Oracle).ok());
  ASSERT_EQ(Oracle.pointsTo(F.X).count(), 3u) << "f1, f2 and g";
  ASSERT_FALSE(Oracle.pointsTo(F.O1 + 1) == Oracle.pointsTo(F.O2 + 1));

  PointsToSolution Lcd = solve(F.CS, SolverKind::LCD);
  ASSERT_EQ(Lcd.repOf(F.O1), Lcd.repOf(F.O2))
      << "the base slots must collapse for the fields to be at risk";

  std::vector<SolverKind> Kinds(std::begin(AllSolverKinds),
                                std::end(AllSolverKinds));
  Kinds.push_back(SolverKind::Naive);
  for (SolverKind Kind : Kinds) {
    for (PtsRepr Repr : {PtsRepr::Bitmap, PtsRepr::Bdd}) {
      if (Repr == PtsRepr::Bdd &&
          (Kind == SolverKind::BLQ || Kind == SolverKind::BLQHCD))
        continue;
      const char *ReprName = Repr == PtsRepr::Bitmap ? "bitmap" : "bdd";
      PointsToSolution S = solve(F.CS, Kind, Repr);
      EXPECT_TRUE(S == Oracle) << solverKindName(Kind) << "/" << ReprName;
      CheckReport R = checkSolution(F.CS, S);
      EXPECT_TRUE(R.ok()) << solverKindName(Kind) << "/" << ReprName << ": "
                          << R.summary(F.CS);
    }
  }
}

TEST(LcdPops, TriggerProbesOnlyFollowUnchangedPropagations) {
  for (const BenchmarkSpec &Spec : paperSuites(0.05)) {
    ConstraintSystem CS = generateBenchmark(Spec);
    OvsResult Ovs = runOfflineVariableSubstitution(CS);
    PointsToSolution Oracle = solve(Ovs.Reduced, SolverKind::Naive,
                                    PtsRepr::Bitmap, nullptr,
                                    SolverOptions(), &Ovs.Rep);
    for (SolverKind Kind : {SolverKind::LCD, SolverKind::LCDHCD}) {
      SolverStats S;
      PointsToSolution Sol = solve(Ovs.Reduced, Kind, PtsRepr::Bitmap, &S,
                                   SolverOptions(), &Ovs.Rep);
      EXPECT_TRUE(Sol == Oracle) << Spec.Name << " " << solverKindName(Kind);
      EXPECT_GT(S.LcdTriggerProbes, 0u)
          << Spec.Name << " " << solverKindName(Kind);
      EXPECT_LE(S.LcdTriggerProbes, S.Propagations - S.ChangedPropagations)
          << Spec.Name << " " << solverKindName(Kind) << ": "
          << S.Propagations << " propagations, " << S.ChangedPropagations
          << " changed";
    }
  }
}

} // namespace
