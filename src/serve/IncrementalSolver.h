//===- IncrementalSolver.h - Warm-start re-solving --------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warm-start incremental re-solving: load a precise snapshot, apply a
/// stream of *new* constraints, and resume difference propagation from
/// the prior fixpoint with only the delta-touched nodes on the worklist.
///
/// Soundness and exactness (full argument in DESIGN.md §10): inclusion
/// constraints are monotone, so adding constraints can only grow the
/// least fixpoint — prior points-to facts never need retraction. The
/// snapshot's representative table records (a) the offline seed merges
/// the base solve was given and (b) every online merge it performed;
/// online merges collapse only genuine cycles of the seeded base graph,
/// and added constraints cannot remove edges, so those cycles persist in
/// the delta'd system and pre-merging them is exact. Re-solving the full
/// system seeded with the snapshot's representative table therefore
/// reaches the same per-node solution as a cold solve of the full system
/// seeded with the base offline map — which is the cold baseline the
/// tests compare against.
///
/// The warm context is rebuilt without persisting the online copy-edge
/// graph: at a fixpoint, one resolveComplex pass over every node with
/// dereference constraints re-materializes every derived edge (each
/// group's resolution frontier is empty in a fresh context), and
/// propagation along a re-derived base edge is a no-op because the
/// snapshot sets already satisfy it — so only delta-touched nodes need
/// seeding.
///
/// Budget composition: the re-solve (including the edge-rebuild pass)
/// runs under a SolveGovernor; a trip degrades exactly like a cold
/// solve — Steensgaard fallback folded over the snapshot's *offline*
/// seed map (so a tripped warm solve and a tripped cold solve of the
/// same system produce identical solutions), or flagged-unsound partial
/// state when fallback is disallowed.
///
//===----------------------------------------------------------------------===//

#ifndef AG_SERVE_INCREMENTALSOLVER_H
#define AG_SERVE_INCREMENTALSOLVER_H

#include "adt/Statistics.h"
#include "serve/Snapshot.h"

#include <string>
#include <vector>

namespace ag {

struct BitmapPtsPolicy;
template <typename PtsPolicy> class LcdSolver;

/// Outcome of one warm-start re-solve.
struct WarmStartResult {
  PointsToSolution Solution;
  /// Ok for a precise run; the budget-trip reason for Fallback/Partial;
  /// the input error for Failed.
  Status St;
  SolveOutcome Outcome = SolveOutcome::Failed;
  bool Sound = false;
  SolverStats Stats;
  /// Delta constraints that were genuinely new (duplicates of base
  /// constraints are dropped, as ConstraintSystem::add always does).
  uint32_t NewConstraints = 0;
  /// Nodes seeded into the worklist (the touched set).
  uint32_t SeededNodes = 0;
};

/// Applies constraint deltas to a snapshotted solve and re-solves warm.
/// After a Precise re-solve the delta is folded into the held snapshot,
/// so repeated deltas compose; Fallback/Partial results are returned but
/// NOT folded (they are not fixpoints to warm-start from — retry with a
/// larger budget against the unchanged base).
class IncrementalSolver {
public:
  /// \p Snap must be a Precise snapshot: fallback solutions are sound
  /// supersets but not least fixpoints, and partial ones are unsound —
  /// resuming difference propagation from either would not converge to
  /// the delta'd system's solution. Call valid() after construction.
  explicit IncrementalSolver(Snapshot Snap);

  /// Ok, or why this snapshot cannot be warm-started.
  const Status &valid() const { return ValidSt; }

  /// The current system: base plus every folded delta and added node.
  const ConstraintSystem &system() const { return Cur.CS; }
  /// Solution of system() (base solution until a delta is folded).
  const PointsToSolution &solution() const { return Cur.Solution; }
  const Snapshot &snapshot() const { return Cur; }

  /// Extends the node table (new variables/objects referenced by an
  /// upcoming delta). Returns the first new id.
  NodeId addNode(std::string Name = "", uint32_t Size = 1);

  /// Applies \p Delta (constraints over the current node table) and
  /// re-solves warm with the sequential LCD solver.
  WarmStartResult resolve(const std::vector<Constraint> &Delta,
                          const SolveBudget &Budget = SolveBudget(),
                          const SolverOptions &Opts = SolverOptions());

  /// As resolve(), taking the delta as a parsed constraint file whose
  /// node table must extend the current one (same sizes and function
  /// flags for existing ids; extra nodes are adopted). This
  /// is the `ptatool resolve` entry: base.cons solved and snapshotted,
  /// delta.cons carrying the new constraints.
  WarmStartResult resolveSystem(const ConstraintSystem &DeltaCS,
                                const SolveBudget &Budget = SolveBudget(),
                                const SolverOptions &Opts = SolverOptions());

private:
  void warmSolve(WarmStartResult &R, LcdSolver<BitmapPtsPolicy> &Solver,
                 ConstraintSystem &FullCS,
                 const std::vector<Constraint> &Applied, bool AllowFallback);

  Snapshot Cur;
  Status ValidSt;
};

} // namespace ag

#endif // AG_SERVE_INCREMENTALSOLVER_H
