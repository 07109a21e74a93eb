//===- DemandTier.cpp - Demand-first query tier ---------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "demand/DemandTier.h"

#include "obs/MetricsRegistry.h"
#include "obs/RequestContext.h"
#include "obs/TraceRecorder.h"

using namespace ag;

DemandTier::DemandTier(ConstraintSystem System, const Options &O)
    : Opts(O), CS(std::move(System)),
      Demand(std::make_unique<DemandSolver>(CS)) {}

DemandTier::IdList DemandTier::materialize(const SparseBitVector &Bits) {
  std::vector<NodeId> Ids;
  for (uint32_t V : Bits)
    Ids.push_back(V);
  // SparseBitVector iterates ascending; no sort needed.
  return std::make_shared<const std::vector<NodeId>>(std::move(Ids));
}

DemandTier::IdList DemandTier::solutionPointsTo(NodeId V) const {
  return std::make_shared<const std::vector<NodeId>>(
      Escalation->pointsToVector(V));
}

DemandTier::IdList DemandTier::solutionPointedBy(NodeId Obj) const {
  // An ascending scan over all nodes (class members included) yields a
  // sorted list. Sets are walked, not probed: a probe moves the set's
  // lookup cursor, and the sets are shared with a materialized engine
  // that other threads read.
  std::vector<NodeId> Ids;
  for (NodeId V = 0; V != CS.numNodes(); ++V)
    for (uint32_t O : Escalation->pointsTo(V))
      if (O >= Obj) {
        if (O == Obj)
          Ids.push_back(V);
        break;
      }
  return std::make_shared<const std::vector<NodeId>>(std::move(Ids));
}

Status DemandTier::escalateLocked(const Status &TripSt) {
  if (Escalation)
    return Status::okStatus();
  if (!Opts.AllowEscalation)
    return TripSt;
  obs::TierSpan Tier(obs::ReqTier::Escalation);
  Tier.markHit();
  obs::TraceSpan Span("demand.escalate", "demand");
  obs::count(obs::Counter::DemandEscalations);
  SolveResult R = solveGoverned(CS, Opts.EscalationKind,
                                Opts.EscalationBudget, PtsRepr::Bitmap,
                                nullptr, Opts.EscalationOpts);
  if (R.Outcome == SolveOutcome::Failed)
    return R.St;
  if (!R.Sound) {
    // Partial exhaustive state is unsound; the tier never adopts it. The
    // caller sees why no answer exists: the demand trip if there was one,
    // else the escalation's own trip.
    return TripSt.ok() ? R.St : TripSt;
  }
  Escalation = std::make_shared<PointsToSolution>(std::move(R.Solution));
  EscOutcome = R.Outcome;
  EscSt = R.St;
  Escalated = true;
  ++Version;
  return Status::okStatus();
}

Status DemandTier::escalateNow() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Escalation)
    return Status::okStatus();
  bool Saved = Opts.AllowEscalation;
  Opts.AllowEscalation = true;
  Status St = escalateLocked(Status::okStatus());
  Opts.AllowEscalation = Saved;
  return St;
}

Status DemandTier::pointsTo(NodeId V, IdList &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!validNode(V))
    return Status::invalidArgument("pointsTo query for unknown node " +
                                   std::to_string(V));
  if (Escalation) {
    obs::noteTierProbe(obs::ReqTier::Escalation, /*Hit=*/true);
    Out = solutionPointsTo(V);
    return Status::okStatus();
  }
  SparseBitVector Bits;
  Status St;
  {
    obs::TierSpan Tier(obs::ReqTier::Demand);
    SolveGovernor Gov(Opts.QueryBudget);
    St = Demand->pointsTo(V, &Gov, Bits);
    if (St.ok())
      Tier.markHit();
  }
  if (St.ok()) {
    Out = materialize(Bits);
    return St;
  }
  if (!St.isBudgetTrip())
    return St;
  if (Status Esc = escalateLocked(St); !Esc.ok())
    return Esc;
  Out = solutionPointsTo(V);
  return Status::okStatus();
}

Status DemandTier::alias(NodeId A, NodeId B, bool &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!validNode(A) || !validNode(B))
    return Status::invalidArgument("alias query for unknown node");
  if (Escalation) {
    obs::noteTierProbe(obs::ReqTier::Escalation, /*Hit=*/true);
    Out = Escalation->mayAlias(A, B);
    return Status::okStatus();
  }
  Status St;
  {
    obs::TierSpan Tier(obs::ReqTier::Demand);
    SolveGovernor Gov(Opts.QueryBudget);
    St = Demand->alias(A, B, &Gov, Out);
    if (St.ok())
      Tier.markHit();
  }
  if (St.ok() || !St.isBudgetTrip())
    return St;
  if (Status Esc = escalateLocked(St); !Esc.ok())
    return Esc;
  Out = Escalation->mayAlias(A, B);
  return Status::okStatus();
}

Status DemandTier::pointedBy(NodeId Obj, IdList &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!validNode(Obj))
    return Status::invalidArgument("pointedBy query for unknown node " +
                                   std::to_string(Obj));
  if (Escalation) {
    obs::noteTierProbe(obs::ReqTier::Escalation, /*Hit=*/true);
    Out = solutionPointedBy(Obj);
    return Status::okStatus();
  }
  SparseBitVector Bits;
  Status St;
  {
    obs::TierSpan Tier(obs::ReqTier::Demand);
    SolveGovernor Gov(Opts.QueryBudget);
    St = Demand->pointedBy(Obj, &Gov, Bits);
    if (St.ok())
      Tier.markHit();
  }
  if (St.ok()) {
    Out = materialize(Bits);
    return St;
  }
  if (!St.isBudgetTrip())
    return St;
  if (Status Esc = escalateLocked(St); !Esc.ok())
    return Esc;
  Out = solutionPointedBy(Obj);
  return Status::okStatus();
}

bool DemandTier::tryMemoPointsTo(NodeId V, IdList &Out) {
  // Certified classes stay exact even after escalation (same system,
  // same least fixpoint); resolveDelta invalidates them before the
  // system changes. So the memo keeps answering ahead of the engine.
  std::lock_guard<std::mutex> Lock(Mu);
  SparseBitVector Bits;
  bool Hit = Demand->memoPointsTo(V, Bits);
  obs::noteTierProbe(obs::ReqTier::Memo, Hit);
  if (Hit)
    Out = materialize(Bits);
  return Hit;
}

bool DemandTier::tryMemoAlias(NodeId A, NodeId B, bool &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  bool Hit = Demand->memoAlias(A, B, Out);
  obs::noteTierProbe(obs::ReqTier::Memo, Hit);
  return Hit;
}

Status DemandTier::callees(NodeId V, IdList &Out) {
  IdList Pts;
  if (Status St = pointsTo(V, Pts); !St.ok())
    return St;
  // Under Mu: resolveDelta may be growing the node table. Objects only
  // ever gain nodes after them, so Pts's flags are stable.
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<NodeId> Funs;
  for (NodeId Obj : *Pts)
    if (CS.isFunction(Obj))
      Funs.push_back(Obj);
  Out = std::make_shared<const std::vector<NodeId>>(std::move(Funs));
  return Status::okStatus();
}

Status DemandTier::resolveDelta(const ConstraintSystem &DeltaCS) {
  std::lock_guard<std::mutex> Lock(Mu);
  const uint32_t N = CS.numNodes();
  if (DeltaCS.numNodes() < N)
    return Status::invalidArgument(
        "delta system has fewer nodes than the served system (" +
        std::to_string(DeltaCS.numNodes()) + " < " + std::to_string(N) +
        ")");
  for (NodeId V = 0; V != N; ++V)
    if (DeltaCS.sizeOf(V) != CS.sizeOf(V) ||
        DeltaCS.isFunction(V) != CS.isFunction(V))
      return Status::invalidArgument(
          "delta node table diverges from the served system at node " +
          std::to_string(V) +
          " (deltas may only extend the id space, not remap it)");
  for (const Constraint &C : DeltaCS.constraints()) {
    if (C.Offset != 0 && C.Kind != ConstraintKind::Load &&
        C.Kind != ConstraintKind::Store)
      return Status::invalidArgument(
          "delta offset on a non-complex constraint");
    if (C.Offset > ConstraintSystem::MaxOffset)
      return Status::invalidArgument("delta offset out of range");
  }

  // Adopt new nodes head-to-head, exactly as the warm-start path does (a
  // sized head implies its interior slots, whose sizeOf reports 1).
  NodeId V = N;
  while (V < DeltaCS.numNodes()) {
    uint32_t Size = DeltaCS.sizeOf(V);
    if (DeltaCS.isFunction(V)) {
      if (Size < ConstraintSystem::FunctionParamOffset)
        return Status::invalidArgument(
            "delta declares a function node too small for its slots");
      CS.addFunction(DeltaCS.nameOf(V),
                     Size - ConstraintSystem::FunctionParamOffset);
    } else {
      CS.addNode(DeltaCS.nameOf(V), Size);
    }
    for (uint32_t I = 1; I < Size; ++I)
      CS.setName(V + I, DeltaCS.nameOf(V + I));
    V += Size;
  }
  for (const Constraint &C : DeltaCS.constraints()) {
    if (C.Dst >= CS.numNodes() || C.Src >= CS.numNodes())
      return Status::invalidArgument(
          "delta constraint references unknown node");
    CS.add(C); // Dedups against the base; genuinely new facts invalidate
               // memo entries via refresh() below.
  }

  Demand->refresh();
  // The escalated solution (if any) no longer matches the system; the
  // demand path resumes with its warm partial state.
  Escalation.reset();
  EscSt = Status::okStatus();
  EscOutcome = SolveOutcome::Precise;
  Escalated = false;
  ++Version;
  return Status::okStatus();
}

uint64_t DemandTier::memoCompleteCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Demand->memoCompleteCount();
}
