//===- QueryEngine.h - Points-to query serving ------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serves the queries clients actually ask of a pointer analysis —
/// pointsTo, alias, pointedBy (reverse index), and the function-pointer
/// call graph — over a loaded Snapshot. The engine caches nothing: the
/// serve epoch that owns it fronts it with one answer cache
/// (serve/AnswerCache.h), keyed by canonId.
///
/// Canonical set id: the lowest representative whose solution holds the
/// same physical (hash-consed) points-to set as the queried node,
/// precomputed at load time. All members of a collapsed equivalence
/// class (cycle members, OVS-substituted temporaries, HCD-merged
/// variables) share one id, and so do distinct representatives whose
/// sets were deduplicated onto one canonical set by the solver's
/// interning pass or the snapshot's backref encoding. Ids are stable
/// small integers, never raw set pointers — a pointer key would go stale
/// the moment a snapshot reload freed the set.
///
//===----------------------------------------------------------------------===//

#ifndef AG_SERVE_QUERYENGINE_H
#define AG_SERVE_QUERYENGINE_H

#include "adt/Status.h"
#include "core/SolveBudget.h"
#include "serve/Snapshot.h"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace ag {

/// Query front-end over one snapshot. Thread-compatible: concurrent
/// queries are safe (lazy indexes build under a mutex or once-flag);
/// loading a new snapshot requires external exclusion.
class QueryEngine {
public:
  /// Shared sorted id list; the answer cache shares it, so a hit costs
  /// no copy.
  using IdList = std::shared_ptr<const std::vector<NodeId>>;

  explicit QueryEngine(Snapshot Snap);

  const Snapshot &snapshot() const { return Snap; }
  uint32_t numNodes() const { return Snap.CS.numNodes(); }

  /// True if \p V names a node of the loaded system. All query methods
  /// require valid ids; the REPL validates before calling.
  bool validNode(NodeId V) const { return V < numNodes(); }

  /// The canonical set id of \p V: lowest node sharing V's physical
  /// points-to set (all empty-set nodes collapse onto one id).
  NodeId canonId(NodeId V) const { return CanonIds[V]; }

  /// Sorted points-to set of \p V.
  IdList pointsTo(NodeId V);

  /// May-alias: do pts(P) and pts(Q) intersect?
  bool alias(NodeId P, NodeId Q);

  /// Sorted list of nodes that may point to object \p Obj (the reverse
  /// index, built lazily on first use). The index build scans every
  /// representative's solution set; \p Gov (if given) is charged one step
  /// per representative and per set element, and a budget trip surfaces
  /// as a structured Status with no index committed — the next call
  /// retries the build from scratch under its own budget.
  Status pointedBy(NodeId Obj, IdList &Out, SolveGovernor *Gov = nullptr);

  /// Function objects \p V may target through an indirect call —
  /// pts(V) filtered to functions.
  IdList callees(NodeId V);

  /// The function-pointer call graph: one (base, callee) edge per
  /// variable dereferenced at a function slot offset and function
  /// object in its points-to set. Sorted, deduplicated, built lazily.
  const std::vector<std::pair<NodeId, NodeId>> &callGraph();

private:
  /// Builds the reverse index into local temporaries, charging \p Gov,
  /// and commits only on success. Caller holds ReverseMu. Throws
  /// BudgetExceededError on a trip (nothing committed).
  void buildReverseIndex(SolveGovernor *Gov);
  void buildCallGraph();
  void buildCanonIds();

  Snapshot Snap;
  /// Per node: canonical set id (see canonId). Built at construction;
  /// immutable afterwards, so concurrent queries read it lock-free.
  std::vector<NodeId> CanonIds;

  /// Guards the lazy reverse-index build. A once-flag would latch a
  /// tripped (abandoned) build forever; a mutex + committed flag lets
  /// the next query retry under its own budget.
  std::mutex ReverseMu;
  bool ReverseBuilt = false;
  /// Per object-id: the representatives whose sets contain it
  /// (ascending). Expanded to class members per query.
  std::vector<std::vector<NodeId>> ReverseIndex;
  /// Per representative: its class members (ascending), including
  /// itself. Built with the reverse index.
  std::vector<std::vector<NodeId>> ClassMembers;

  std::once_flag CallGraphOnce;
  std::vector<std::pair<NodeId, NodeId>> CallEdges;
};

} // namespace ag

#endif // AG_SERVE_QUERYENGINE_H
