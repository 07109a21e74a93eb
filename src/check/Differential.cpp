//===- Differential.cpp - Cross-solver differential testing --------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "check/Differential.h"

#include "constraints/OfflineVariableSubstitution.h"
#include "obs/FlightRecorder.h"
#include "solvers/Solve.h"

#include <algorithm>

using namespace ag;

SolveFn ag::solveFnFor(SolverKind Kind, PtsRepr Repr) {
  return [Kind, Repr](const ConstraintSystem &CS) {
    OvsResult Ovs = runOfflineVariableSubstitution(CS);
    return solve(Ovs.Reduced, Kind, Repr, nullptr, SolverOptions(),
                 &Ovs.Rep);
  };
}

std::string DiffResult::toString() const {
  if (!Mismatch)
    return "solutions agree";
  std::string Out = "mismatch at node " + std::to_string(Node) + ":";
  auto Append = [&](const char *Tag, const std::vector<NodeId> &Ids) {
    if (Ids.empty())
      return;
    Out += std::string(" ") + Tag + " {";
    for (size_t I = 0; I != Ids.size(); ++I)
      Out += (I ? "," : "") + std::to_string(Ids[I]);
    Out += "}";
  };
  Append("only-A", OnlyInA);
  Append("only-B", OnlyInB);
  return Out;
}

DiffResult ag::diffSolutions(const PointsToSolution &A,
                             const PointsToSolution &B) {
  DiffResult R;
  const uint32_t N = A.numNodes();
  if (B.numNodes() != N) {
    R.Mismatch = true;
    R.Node = std::min(N, B.numNodes());
    return R;
  }
  constexpr size_t MaxListed = 8;
  for (NodeId V = 0; V != N; ++V) {
    const SparseBitVector &SA = A.pointsTo(V);
    const SparseBitVector &SB = B.pointsTo(V);
    if (SA == SB)
      continue;
    R.Mismatch = true;
    R.Node = V;
    // Two-pointer walk to report the symmetric difference (capped).
    auto IA = SA.begin(), EA = SA.end();
    auto IB = SB.begin(), EB = SB.end();
    while ((IA != EA || IB != EB) &&
           R.OnlyInA.size() + R.OnlyInB.size() < MaxListed) {
      if (IB == EB || (IA != EA && *IA < *IB))
        R.OnlyInA.push_back(*IA++);
      else if (IA == EA || *IB < *IA)
        R.OnlyInB.push_back(*IB++);
      else {
        ++IA;
        ++IB;
      }
    }
    return R;
  }
  return R;
}

namespace {

/// Rebuilds a system with the original node table and \p Keep's subset of
/// \p Cons, preserving order (constraint order is solver-visible through
/// worklist scheduling, so the reproducer must not permute it).
ConstraintSystem subsetSystem(const ConstraintSystem &Full,
                              const std::vector<Constraint> &Cons,
                              const std::vector<bool> &Keep) {
  ConstraintSystem Out = Full.cloneNodeTable();
  for (size_t I = 0; I != Cons.size(); ++I)
    if (Keep[I])
      Out.add(Cons[I]);
  return Out;
}

} // namespace

DifferentialReport ag::runDifferential(const ConstraintSystem &CS,
                                       const SolveFn &A, const SolveFn &B,
                                       const ReduceOptions &Opts) {
  DifferentialReport Report;
  auto Mismatches = [&](const ConstraintSystem &Sys) {
    Report.SolverRuns += 2;
    return diffSolutions(A(Sys), B(Sys)).Mismatch;
  };

  Report.Diff = diffSolutions(A(CS), B(CS));
  Report.SolverRuns = 2;
  if (!Report.Diff.Mismatch) {
    Report.ReductionComplete = true;
    return Report;
  }
  obs::flight("differential_mismatch", Report.Diff.Node);

  const std::vector<Constraint> &Cons = CS.constraints();
  std::vector<bool> Keep(Cons.size(), true);
  size_t Alive = Cons.size();

  if (Opts.MaxSolves == 0) {
    Report.Reduced = subsetSystem(CS, Cons, Keep);
    Report.ReducedDiff = Report.Diff;
    return Report;
  }

  // Greedy ddmin: try removing chunks, keep removals that preserve the
  // mismatch, halve the chunk until single constraints survive a full
  // sweep untouched.
  size_t Chunk = std::max<size_t>(1, (Alive + 1) / 2);
  bool Budgeted = true;
  while (Budgeted) {
    bool AnyRemoved = false;
    for (size_t Start = 0; Start < Cons.size() && Budgeted;) {
      // Collect the next Chunk alive constraints from Start.
      std::vector<size_t> Candidate;
      size_t I = Start;
      for (; I < Cons.size() && Candidate.size() < Chunk; ++I)
        if (Keep[I])
          Candidate.push_back(I);
      Start = I;
      if (Candidate.empty())
        break;
      if (Report.SolverRuns + 2 > Opts.MaxSolves) {
        Budgeted = false;
        break;
      }
      for (size_t J : Candidate)
        Keep[J] = false;
      if (Mismatches(subsetSystem(CS, Cons, Keep))) {
        Alive -= Candidate.size();
        AnyRemoved = true;
      } else {
        for (size_t J : Candidate)
          Keep[J] = true;
      }
    }
    if (Chunk > 1)
      Chunk = (Chunk + 1) / 2;
    else if (!AnyRemoved)
      break; // 1-minimal: no single constraint can be dropped.
  }
  Report.ReductionComplete = Budgeted;

  Report.Reduced = subsetSystem(CS, Cons, Keep);
  Report.ReducedDiff = diffSolutions(A(Report.Reduced), B(Report.Reduced));
  Report.SolverRuns += 2;
  obs::flight("differential_reduced", Alive, Report.SolverRuns);
  return Report;
}
