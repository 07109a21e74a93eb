//===- Differential.h - Cross-solver differential testing ------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A differential harness over the solver matrix: run two solver
/// configurations (kind x representation) on the same
/// constraint system and compare solutions element-for-element. Inclusion-
/// based analysis has a unique least fixpoint, so any divergence between
/// two precise solvers is a bug in one of them — the strongest oracle this
/// codebase has, and the one the paper's own evaluation implicitly relies
/// on when it reports identical precision across algorithms.
///
/// When a mismatch is found, a greedy delta-debugging reducer shrinks the
/// constraint list to a (1-minimal) reproducer: it repeatedly tries
/// dropping chunks of constraints, keeping any removal that preserves the
/// mismatch, halving the chunk size until single constraints. Reduced
/// systems keep the full node table (cloneNodeTable), so node ids in the
/// reproducer match the original — the usual last mile of debugging a
/// solver divergence is exactly this loop, done by hand.
///
//===----------------------------------------------------------------------===//

#ifndef AG_CHECK_DIFFERENTIAL_H
#define AG_CHECK_DIFFERENTIAL_H

#include "constraints/ConstraintSystem.h"
#include "core/PointsToSolution.h"
#include "core/Solver.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ag {

/// A solver under differential test: any function from a constraint
/// system to a solution (typically solveFnFor, or a deliberately broken
/// wrapper in the harness's own tests).
using SolveFn = std::function<PointsToSolution(const ConstraintSystem &)>;

/// The canonical pipeline under test: OVS-reduce, then solve \p Kind /
/// \p Repr with the substitution seeds (exactly what ptatool solve and
/// snapshot do).
SolveFn solveFnFor(SolverKind Kind, PtsRepr Repr);

/// First divergence between two solutions of the same system.
struct DiffResult {
  bool Mismatch = false;
  NodeId Node = InvalidNode;          ///< First differing node.
  std::vector<NodeId> OnlyInA, OnlyInB; ///< Set difference at Node (capped).

  std::string toString() const;
};

/// Element-wise comparison (routed through each solution's rep table, so
/// different collapse histories with equal sets compare equal).
DiffResult diffSolutions(const PointsToSolution &A,
                         const PointsToSolution &B);

struct ReduceOptions {
  /// Ceiling on solver invocations the reducer may spend. The greedy pass
  /// re-runs both solvers per candidate removal; 0 disables reduction.
  uint32_t MaxSolves = 4000;
};

/// Differential run outcome.
struct DifferentialReport {
  DiffResult Diff;               ///< Mismatch info on the *original* system.
  ConstraintSystem Reduced;      ///< Minimal reproducer (when Diff.Mismatch).
  DiffResult ReducedDiff;        ///< Divergence on the reproducer.
  uint32_t SolverRuns = 0;       ///< Total solve invocations spent.
  bool ReductionComplete = false; ///< False if MaxSolves stopped the shrink.
};

/// Runs \p A and \p B on \p CS; on divergence shrinks the constraint list
/// with greedy delta debugging (see file comment).
DifferentialReport runDifferential(const ConstraintSystem &CS,
                                   const SolveFn &A, const SolveFn &B,
                                   const ReduceOptions &Opts =
                                       ReduceOptions());

} // namespace ag

#endif // AG_CHECK_DIFFERENTIAL_H
