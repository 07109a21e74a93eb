//===- DemandTier.h - Demand-first query tier -------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving tier over DemandSolver: per-query governor construction,
/// structured escalation to an exhaustive governed solve when a query's
/// deduction budget trips, and delta adoption mirroring
/// IncrementalSolver::resolveSystem. The tier caches no answers; the
/// serve epoch in front of it does. Layering: this class deliberately
/// knows nothing about the serve library — ServeSession consults *it*
/// (the demand memo ahead of a snapshot solution), never the other way
/// around.
///
/// Escalation policy ("sound fallback preserved"): a Precise or Fallback
/// exhaustive solution is adopted and serves every later query; a Partial
/// one (budget tripped with fallback disallowed) is discarded and the
/// query reports its budget-trip Status — the tier never serves unsound
/// answers.
///
/// Thread-safe: one mutex serializes queries (the demand solver mutates
/// shared memo state).
///
//===----------------------------------------------------------------------===//

#ifndef AG_DEMAND_DEMANDTIER_H
#define AG_DEMAND_DEMANDTIER_H

#include "constraints/ConstraintSystem.h"
#include "core/PointsToSolution.h"
#include "demand/DemandSolver.h"
#include "solvers/Solve.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace ag {

/// Demand-first query tier over one constraint system (see file comment).
class DemandTier {
public:
  struct Options {
    /// Budget for one demand deduction; unlimited() never escalates.
    SolveBudget QueryBudget;
    /// Budget for the escalation solve (default unlimited: escalation
    /// always lands a precise exhaustive solution).
    SolveBudget EscalationBudget;
    SolverOptions EscalationOpts;
    SolverKind EscalationKind = SolverKind::LCDHCD;
    /// Escalate on a demand budget trip. When false a tripped query
    /// reports its trip Status instead.
    bool AllowEscalation = true;
  };

  /// Shared sorted id list (the QueryEngine result convention).
  using IdList = std::shared_ptr<const std::vector<NodeId>>;

  explicit DemandTier(ConstraintSystem System)
      : DemandTier(std::move(System), Options()) {}
  DemandTier(ConstraintSystem System, const Options &Opts);

  DemandTier(const DemandTier &) = delete;
  DemandTier &operator=(const DemandTier &) = delete;

  const ConstraintSystem &system() const { return CS; }
  uint32_t numNodes() const { return CS.numNodes(); }
  bool validNode(NodeId V) const { return V < CS.numNodes(); }

  /// Sorted points-to set of \p V: demand memo first, deduction under the
  /// query budget, escalation on a trip.
  Status pointsTo(NodeId V, IdList &Out);

  /// May-alias verdict through the same tiers.
  Status alias(NodeId A, NodeId B, bool &Out);

  /// Sorted list of nodes whose set contains \p Obj. After escalation
  /// this scans the whole solution. A serve session sends later reads to
  /// a QueryEngine over the solution, so the scan serves one-shot callers
  /// (`ptatool query`) and reads racing the escalation.
  Status pointedBy(NodeId Obj, IdList &Out);

  /// Function objects \p V may target: pointsTo filtered to functions.
  Status callees(NodeId V, IdList &Out);

  /// Memo-only probes: answer (and count a memo hit) iff the class is
  /// certified-complete — never deduce. A serve epoch over the escalated
  /// solution consults these before it; certified answers remain exact
  /// after escalation (same system, same least fixpoint), and
  /// resolveDelta invalidates them before the system changes.
  bool tryMemoPointsTo(NodeId V, IdList &Out);
  bool tryMemoAlias(NodeId A, NodeId B, bool &Out);

  /// Forces the escalation solve now (idempotent). Used by callers that
  /// need the whole solution (call graphs, self-checks).
  Status escalateNow();

  /// Adopts \p DeltaCS (full node table + base and new constraints, the
  /// `ptatool resolve` file shape): validates and extends the node table
  /// exactly as IncrementalSolver::resolveSystem does, appends the new
  /// constraints, invalidates affected memo entries and drops any
  /// escalated solution.
  Status resolveDelta(const ConstraintSystem &DeltaCS);

  bool escalated() const { return Escalated.load(); }
  /// Bumped whenever the tier starts answering from a different source:
  /// on adopting an escalation and on resolveDelta. An answer obtained
  /// while the version stayed put came from demand deduction over one
  /// system.
  uint64_t version() const { return Version.load(); }
  SolveOutcome escalationOutcome() const { return EscOutcome; }
  const Status &escalationStatus() const { return EscSt; }
  SolverKind escalationKind() const { return Opts.EscalationKind; }
  /// The adopted exhaustive solution (null until escalated()).
  std::shared_ptr<const PointsToSolution> escalationSolution() const {
    return Escalation;
  }

  uint64_t memoCompleteCount() const;

private:
  static IdList materialize(const SparseBitVector &Bits);

  /// Runs the escalation solve if not yet run. Mu held. Returns the
  /// query-visible status: ok after adopting a sound solution, the
  /// original \p TripSt when escalation is off or landed Partial.
  Status escalateLocked(const Status &TripSt);

  /// pointsTo/pointedBy against the adopted exhaustive solution. Mu held.
  IdList solutionPointsTo(NodeId V) const;
  IdList solutionPointedBy(NodeId Obj) const;

  Options Opts;
  ConstraintSystem CS;

  mutable std::mutex Mu;
  std::unique_ptr<DemandSolver> Demand;

  /// Adopted escalation solution (sound: Precise or Fallback), null while
  /// the demand path serves.
  std::shared_ptr<const PointsToSolution> Escalation;
  SolveOutcome EscOutcome = SolveOutcome::Precise;
  Status EscSt;
  /// Read without Mu, written under it: whether Escalation is set, and
  /// the version() counter.
  std::atomic<bool> Escalated{false};
  std::atomic<uint64_t> Version{0};
};

} // namespace ag

#endif // AG_DEMAND_DEMANDTIER_H
