//===- QueryEngine.cpp - Points-to query serving --------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "serve/QueryEngine.h"

#include "obs/RequestContext.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace ag;

QueryEngine::QueryEngine(Snapshot S) : Snap(std::move(S)) { buildCanonIds(); }

void QueryEngine::buildCanonIds() {
  const uint32_t N = numNodes();
  CanonIds.resize(N);
  // Physical identity (the hash-consed set pointer) is the dedup key;
  // the nullptr bucket folds every empty-set rep onto one id. Two
  // passes because a class representative's id may exceed a member's.
  std::unordered_map<const SparseBitVector *, NodeId> FirstWithSet;
  for (NodeId V = 0; V != N; ++V) {
    if (Snap.Solution.repOf(V) != V)
      continue;
    auto It = FirstWithSet.emplace(Snap.Solution.sharedSet(V).get(), V);
    CanonIds[V] = It.first->second;
  }
  for (NodeId V = 0; V != N; ++V)
    if (Snap.Solution.repOf(V) != V)
      CanonIds[V] = CanonIds[Snap.Solution.repOf(V)];
}

QueryEngine::IdList QueryEngine::pointsTo(NodeId V) {
  assert(validNode(V) && "query for unknown node");
  obs::TierSpan Tier(obs::ReqTier::Snapshot);
  Tier.markHit();
  return std::make_shared<const std::vector<NodeId>>(
      Snap.Solution.pointsToVector(V));
}

bool QueryEngine::alias(NodeId P, NodeId Q) {
  assert(validNode(P) && validNode(Q) && "query for unknown node");
  obs::TierSpan Tier(obs::ReqTier::Snapshot);
  Tier.markHit();
  return Snap.Solution.mayAlias(P, Q);
}

void QueryEngine::buildReverseIndex(SolveGovernor *Gov) {
  const uint32_t N = numNodes();
  // Build into temporaries: a budget trip mid-scan must leave no
  // half-built index behind (the next query rebuilds from scratch).
  std::vector<std::vector<NodeId>> Reverse(N);
  std::vector<std::vector<NodeId>> Members(N);
  // Ascending scans keep every per-object rep list and per-rep member
  // list sorted without a sort pass.
  for (NodeId V = 0; V != N; ++V)
    Members[Snap.Solution.repOf(V)].push_back(V);
  for (NodeId R = 0; R != N; ++R) {
    if (Snap.Solution.repOf(R) != R)
      continue;
    if (Gov)
      Gov->onStep();
    for (uint32_t Obj : Snap.Solution.pointsTo(R)) {
      if (Gov)
        Gov->onStep();
      Reverse[Obj].push_back(R);
    }
  }
  ReverseIndex = std::move(Reverse);
  ClassMembers = std::move(Members);
  ReverseBuilt = true;
}

Status QueryEngine::pointedBy(NodeId Obj, IdList &Out, SolveGovernor *Gov) {
  assert(validNode(Obj) && "query for unknown node");
  obs::TierSpan Tier(obs::ReqTier::Snapshot);
  Tier.markHit();
  std::vector<NodeId> Pointers;
  {
    std::lock_guard<std::mutex> Lock(ReverseMu);
    if (!ReverseBuilt) {
      try {
        buildReverseIndex(Gov);
      } catch (const BudgetExceededError &E) {
        return E.status();
      }
    }
    for (NodeId R : ReverseIndex[Obj])
      Pointers.insert(Pointers.end(), ClassMembers[R].begin(),
                      ClassMembers[R].end());
  }
  // Rep lists ascend and member lists ascend, but members of a later rep
  // may have smaller ids (the survivor of a merge can outrank members of
  // another class): one sort restores the global order clients expect.
  std::sort(Pointers.begin(), Pointers.end());
  Out = std::make_shared<const std::vector<NodeId>>(std::move(Pointers));
  return Status::okStatus();
}

QueryEngine::IdList QueryEngine::callees(NodeId V) {
  assert(validNode(V) && "query for unknown node");
  obs::TierSpan Tier(obs::ReqTier::Snapshot);
  Tier.markHit();
  std::vector<NodeId> Funs;
  for (uint32_t Obj : Snap.Solution.pointsTo(V))
    if (Snap.CS.isFunction(Obj))
      Funs.push_back(Obj);
  return std::make_shared<const std::vector<NodeId>>(std::move(Funs));
}

void QueryEngine::buildCallGraph() {
  // Indirect calls compile to loads/stores at function slot offsets
  // (>= FunctionReturnOffset) through the function-pointer variable:
  // each such base variable is a call site; its callees are the
  // function objects in its points-to set.
  std::vector<NodeId> Bases;
  for (const Constraint &C : Snap.CS.constraints()) {
    if (C.Offset == 0)
      continue;
    if (C.Kind == ConstraintKind::Load)
      Bases.push_back(C.Src);
    else if (C.Kind == ConstraintKind::Store)
      Bases.push_back(C.Dst);
  }
  std::sort(Bases.begin(), Bases.end());
  Bases.erase(std::unique(Bases.begin(), Bases.end()), Bases.end());
  for (NodeId Base : Bases)
    for (uint32_t Obj : Snap.Solution.pointsTo(Base))
      if (Snap.CS.isFunction(Obj))
        CallEdges.emplace_back(Base, Obj);
  // Bases ascend and each set iterates ascending, so edges are already
  // sorted; distinct bases cannot produce duplicate pairs.
}

const std::vector<std::pair<NodeId, NodeId>> &QueryEngine::callGraph() {
  obs::TierSpan Tier(obs::ReqTier::Snapshot);
  Tier.markHit();
  std::call_once(CallGraphOnce, [this] { buildCallGraph(); });
  return CallEdges;
}
