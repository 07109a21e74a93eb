//===- HcdOnlineTest.cpp - The online HCD rule's lazy-target lists --------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online HCD rule (Figure 5) multiplies each new member of pts(n) by
/// n's lazy targets. Those lists fill with duplicates: the solver
/// constructors put every pre-merged pointer's tuple onto one
/// representative, and merge() concatenates the lists of collapsed nodes.
/// SolverContext::applyHcd canonicalizes a list before using it, so the
/// work (solver.hcd_member_checks) stays within a small multiple of the
/// members visited (solver.hcd_members) while every solution is unchanged.
///
//===----------------------------------------------------------------------===//

#include "constraints/OfflineVariableSubstitution.h"
#include "core/HcdOffline.h"
#include "core/HcdSolver.h"
#include "core/LcdSolver.h"
#include "solvers/HtSolver.h"
#include "solvers/PkhSolver.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ag;

namespace {

constexpr SolverKind BitmapHcdKinds[] = {SolverKind::HCD, SolverKind::HTHCD,
                                         SolverKind::PKHHCD,
                                         SolverKind::LCDHCD};

struct HcdRun {
  PointsToSolution Solution;
  SolverStats Stats;
  /// Representatives whose lazy-target list names one class twice.
  uint32_t ListsWithDuplicates = 0;
};

template <typename SolverT> void finish(SolverT &Solver, HcdRun &Run) {
  Run.Solution = Solver.solve();
  auto &G = Solver.context();
  for (NodeId N = 0; N != G.CS.numNodes(); ++N) {
    if (!G.isRep(N))
      continue;
    std::vector<NodeId> Classes;
    for (NodeId T : G.HcdTargets[N])
      Classes.push_back(G.find(T));
    std::sort(Classes.begin(), Classes.end());
    Run.ListsWithDuplicates +=
        std::adjacent_find(Classes.begin(), Classes.end()) != Classes.end();
  }
}

/// Solves \p CS with the bitmap +HCD kind \p Kind through the solver
/// class itself, so the context can be inspected afterwards. As in
/// solve(), HCD's offline pre-merges seed the union-find.
HcdRun solveKeepingContext(const ConstraintSystem &CS, SolverKind Kind) {
  HcdResult Hcd = runHcdOffline(CS);
  SolverOptions Opts;
  HcdRun Run;
  SolverStats &Stats = Run.Stats;
  switch (Kind) {
  case SolverKind::HCD: {
    HcdSolver<BitmapPtsPolicy> S(CS, Stats, Opts, Hcd, &Hcd.PreMerge);
    finish(S, Run);
    break;
  }
  case SolverKind::HTHCD: {
    HtSolver<BitmapPtsPolicy> S(CS, Stats, Opts, &Hcd, &Hcd.PreMerge);
    finish(S, Run);
    break;
  }
  case SolverKind::PKHHCD: {
    PkhSolver<BitmapPtsPolicy> S(CS, Stats, Opts, &Hcd, &Hcd.PreMerge);
    finish(S, Run);
    break;
  }
  case SolverKind::LCDHCD: {
    LcdSolver<BitmapPtsPolicy> S(CS, Stats, Opts, &Hcd, &Hcd.PreMerge);
    finish(S, Run);
    break;
  }
  default:
    ADD_FAILURE() << "not a bitmap +HCD kind: " << solverKindName(Kind);
  }
  return Run;
}

/// Two groups of Ring pointers whose lazy tuples share one target each.
///  * q_0..q_{Ring-1} form a copy ring, which HCD's offline pass
///    pre-merges, and *q_i = c; c = *q_i gives each the tuple (q_i, c):
///    the constructor stacks Ring copies of c on one representative.
///  * p_0..p_{Ring-1} form a ring closed only online, through t
///    (r = &t; *r = p_i; p_{i+1} = *r), and *p_i = b; b = *p_i gives each
///    the tuple (p_i, b): every online collapse of two p's concatenates
///    their lists.
ConstraintSystem sharedTargetRings(uint32_t Ring) {
  ConstraintSystem CS;
  NodeId B = CS.addNode("b"), C = CS.addNode("c"), R = CS.addNode("r"),
         T = CS.addNode("t");
  CS.addAddressOf(B, CS.addNode("z"));
  CS.addAddressOf(C, CS.addNode("w"));
  CS.addAddressOf(R, T);
  std::vector<NodeId> P, Q;
  for (uint32_t I = 0; I != Ring; ++I) {
    std::string Id = std::to_string(I);
    P.push_back(CS.addNode("p" + Id));
    Q.push_back(CS.addNode("q" + Id));
    CS.addAddressOf(P[I], CS.addNode("o" + Id));
    CS.addAddressOf(Q[I], CS.addNode("m" + Id));
  }
  for (uint32_t I = 0; I != Ring; ++I) {
    uint32_t Next = (I + 1) % Ring;
    CS.addStore(R, P[I]);
    CS.addLoad(P[Next], R);
    CS.addStore(P[I], B);
    CS.addLoad(B, P[I]);
    CS.addCopy(Q[Next], Q[I]);
    CS.addStore(Q[I], C);
    CS.addLoad(C, Q[I]);
  }
  return CS;
}

TEST(HcdOnline, SharedLazyTargetsAreCheckedOncePerMember) {
  ConstraintSystem CS = sharedTargetRings(16);
  HcdResult Hcd = runHcdOffline(CS);
  ASSERT_GE(Hcd.Lazy.size(), 32u) << "one tuple per p_i and per q_i";
  ASSERT_GE(Hcd.NumPreMerged, 15u) << "the q ring is a VAR-only SCC";

  PointsToSolution Oracle = solve(CS, SolverKind::Naive);
  for (SolverKind Kind : BitmapHcdKinds) {
    HcdRun Run = solveKeepingContext(CS, Kind);
    const SolverStats &S = Run.Stats;
    EXPECT_TRUE(Run.Solution == Oracle) << solverKindName(Kind);
    EXPECT_EQ(Run.ListsWithDuplicates, 0u) << solverKindName(Kind);
    EXPECT_LE(S.HcdMemberChecks, 2 * S.HcdMembers)
        << solverKindName(Kind) << ": " << S.HcdMembers << " members";
    if (Kind != SolverKind::HTHCD) { // HT applies its tuples in its own loop.
      EXPECT_GT(S.HcdMembers, 0u) << solverKindName(Kind);
    }
    EXPECT_GT(S.HcdCollapses, 0u) << solverKindName(Kind);
  }
}

TEST(HcdOnline, GeneratedSuiteStaysWithinTwoChecksPerMember) {
  for (const BenchmarkSpec &Spec : paperSuites(0.05)) {
    ConstraintSystem CS = generateBenchmark(Spec);
    OvsResult Ovs = runOfflineVariableSubstitution(CS);
    for (SolverKind Kind : BitmapHcdKinds) {
      if (Kind == SolverKind::HTHCD)
        continue;
      SolverStats S;
      solve(Ovs.Reduced, Kind, PtsRepr::Bitmap, &S, SolverOptions(),
            &Ovs.Rep);
      EXPECT_GT(S.HcdMembers, 0u) << Spec.Name << " " << solverKindName(Kind);
      EXPECT_LE(S.HcdMemberChecks, 2 * S.HcdMembers)
          << Spec.Name << " " << solverKindName(Kind) << ": "
          << S.HcdMembers << " members";
    }
  }
}

} // namespace
