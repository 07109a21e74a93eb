//===- SolverContext.h - Shared online constraint graph ---------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online constraint graph shared by the explicit-closure solvers
/// (Naive, PKH, LCD, HCD, HT): per-node points-to sets (policy-typed),
/// copy-edge bitmaps, indexed complex constraints, a union-find of node
/// representatives for cycle collapsing, and an online Nuutila-variant SCC
/// ("cycles are detected using Nuutila et al.'s variant of Tarjan's
/// algorithm, and collapsed using a union-find data structure").
///
/// Conventions:
///  * Per-node arrays are indexed by original node id but only meaningful
///    for representatives; merge() moves a loser's state into the survivor.
///  * Edge bitmaps may hold stale (merged-away) target ids; iteration maps
///    each target through find() and skips self references.
///  * Points-to set elements are original object ids at every PtsSet
///    call (the bitmap policy stores dense object indices and translates
///    at its boundary), and original ids in every PointsToSolution —
///    merging never rewrites set contents; dereference resolution maps an
///    element through offsetTarget() and then find().
///
//===----------------------------------------------------------------------===//

#ifndef AG_CORE_SOLVERCONTEXT_H
#define AG_CORE_SOLVERCONTEXT_H

#include "adt/ElementArena.h"
#include "adt/InternTable.h"
#include "adt/SparseBitVector.h"
#include "adt/Statistics.h"
#include "adt/UnionFind.h"
#include "constraints/ConstraintSystem.h"
#include "core/PointsToSolution.h"
#include "core/PtsSet.h"
#include "core/SolveBudget.h"
#include "obs/MetricsRegistry.h"
#include "obs/TraceRecorder.h"

#include <algorithm>
#include <vector>

namespace ag {

/// Shared state and operations for the explicit-transitive-closure solvers.
template <typename PtsPolicy> class SolverContext {
public:
  using PtsSet = typename PtsPolicy::Set;
  using PtsCtx = typename PtsPolicy::Context;

  /// One indexed complex constraint: for loads, `Other = *(n+Offset)`'s
  /// destination; for stores, the source stored through *(n+Offset).
  struct Deref {
    NodeId Other;
    uint32_t Offset;

    bool operator<(const Deref &RHS) const {
      return Other != RHS.Other ? Other < RHS.Other : Offset < RHS.Offset;
    }
    bool operator==(const Deref &RHS) const {
      return Other == RHS.Other && Offset == RHS.Offset;
    }
  };

  /// A batch of complex constraints sharing one resolution frontier:
  /// Resolved holds the points-to elements already pushed through this
  /// batch's lists. Merging nodes concatenates groups in O(1) — each
  /// keeps its own frontier, so nothing is ever re-resolved; groups are
  /// consolidated back to one after the next resolveComplex pass.
  struct DerefGroup {
    std::vector<Deref> Loads;
    std::vector<Deref> Stores;
    PtsSet Resolved;

    bool empty() const { return Loads.empty() && Stores.empty(); }
  };

  /// Builds the initial graph from \p CS. If \p SeedReps is given (from
  /// OVS and/or HCD's offline pass), nodes are pre-merged so that runtime
  /// edges to merged-away nodes are routed to their representatives.
  /// \p ReverseEdges stores each copy edge b -> a at node a instead of b,
  /// turning Succs into predecessor sets — the orientation the HT solver's
  /// reachability queries need. Only HT uses this.
  SolverContext(const ConstraintSystem &CS, SolverStats &Stats,
                const std::vector<NodeId> *SeedReps = nullptr,
                bool ReverseEdges = false)
      : CS(CS), Stats(Stats), Ctx(CS),
        Arena(SparseBitVector::elementBytes()) {
    const uint32_t N = CS.numNodes();
    Reps.grow(N);
    Pts.resize(N);
    Delta.resize(N);
    HcdSeen.resize(N);
    Succs.resize(N);
    Derefs.resize(N);
    HcdTargets.resize(N);
    FullDelta.assign(N, 0);
    VisitEpoch.assign(N, 0);
    DfsNum.assign(N, 0);
    OnStackEpoch.assign(N, 0);

    // Bind every per-node set before any bit is inserted. The binding is
    // fixed for the solve's lifetime; unwind order is safe because the
    // arena is declared before the set vectors below.
    for (NodeId V = 0; V != N; ++V) {
      Pts[V].bindArena(&Arena);
      Delta[V].bindArena(&Arena);
      HcdSeen[V].bindArena(&Arena);
      Succs[V].setArena(&Arena);
    }

    if (SeedReps) {
      assert(SeedReps->size() == N && "seed rep table size mismatch");
      for (NodeId V = 0; V != N; ++V)
        if ((*SeedReps)[V] != V)
          Reps.uniteInto((*SeedReps)[V], V);
    }

    for (const Constraint &C : CS.constraints()) {
      switch (C.Kind) {
      case ConstraintKind::AddressOf:
        Pts[find(C.Dst)].insert(Ctx, C.Src);
        break;
      case ConstraintKind::Copy:
        if (ReverseEdges)
          addEdge(C.Dst, C.Src);
        else
          addEdge(C.Src, C.Dst);
        break;
      case ConstraintKind::Load:
        firstGroup(find(C.Src)).Loads.push_back(Deref{C.Dst, C.Offset});
        break;
      case ConstraintKind::Store:
        firstGroup(find(C.Dst)).Stores.push_back(Deref{C.Src, C.Offset});
        break;
      }
    }
  }

  /// Representative of \p V.
  NodeId find(NodeId V) { return Reps.find(V); }

  /// True if \p V is currently a representative.
  bool isRep(NodeId V) const { return Reps.isRepresentative(V); }

  /// Adds the copy edge find(From) -> find(To).
  /// \returns true if the edge is new (self edges report false).
  bool addEdge(NodeId From, NodeId To) {
    return addEdgeReps(find(From), find(To));
  }

  /// addEdge() for operands the caller already routed through find().
  /// Complex-constraint resolution proposes edges once per (element,
  /// deref) pair with mostly-duplicate results, so the per-attempt
  /// find() calls are hoisted out of this path.
  bool addEdgeReps(NodeId From, NodeId To) {
    if (From == To)
      return false;
    if (!Succs[From].set(To))
      return false;
    ++Stats.EdgesAdded;
    if (Governor)
      Governor->onEdgeAdded();
    return true;
  }

  /// Propagates pts(find(From)) into pts(find(To)).
  /// \returns true if the destination changed. Counts a propagation.
  bool propagate(NodeId From, NodeId To) {
    From = find(From);
    To = find(To);
    ++Stats.Propagations;
    if (Governor)
      Governor->onPropagation();
    if (From == To)
      return false;
    bool Changed = Pts[To].unionWith(Ctx, Pts[From]);
    Stats.ChangedPropagations += Changed;
    return Changed;
  }

  /// Difference propagation: unions only the bits that arrived at
  /// \p From since its last completed edge sweep (its pending delta)
  /// into pts(\p To), appending whatever is genuinely new at \p To to
  /// \p To's own pending delta in the same merge pass. Both operands
  /// must already be representatives. Requires UseDeltaPropagation:
  /// every mutation of a points-to set must flow through a delta-aware
  /// kernel or the pending-delta invariant breaks.
  bool propagateDelta(NodeId From, NodeId To) {
    ++Stats.Propagations;
    if (Governor)
      Governor->onPropagation();
    bool Changed = wantsDelta(To)
                       ? Pts[To].unionWithDelta(Ctx, Delta[From], Delta[To])
                       : Pts[To].unionWith(Ctx, Delta[From]);
    Stats.ChangedPropagations += Changed;
    return Changed;
  }

  /// Edge-birth propagation: a newly inserted edge must carry the full
  /// source set once (delta propagation only carries what arrives
  /// later). Both operands must already be representatives.
  bool propagateFull(NodeId From, NodeId To) {
    if (From == To)
      return false;
    ++Stats.Propagations;
    if (Governor)
      Governor->onPropagation();
    bool Changed = wantsDelta(To)
                       ? Pts[To].unionWithDelta(Ctx, Pts[From], Delta[To])
                       : Pts[To].unionWith(Ctx, Pts[From]);
    Stats.ChangedPropagations += Changed;
    return Changed;
  }

  /// Whether arrivals at \p To must be recorded into Delta[To]. Not
  /// when the whole set is already pending (the flag covers every bit),
  /// and not when \p To's pop would do nothing with a frontier — no
  /// outgoing edges, no complex constraints, no lazy HCD tuples. The
  /// skip stays sound as the node gains any of those later: a newborn
  /// edge carries the full set at birth, and deref groups / HCD tuples
  /// only arrive via a merge, which re-pends the whole set.
  bool wantsDelta(NodeId To) const {
    return !FullDelta[To] && (!Succs[To].empty() || !Derefs[To].empty() ||
                              !HcdTargets[To].empty());
  }

  /// Marks the whole of pts(\p V) pending, so \p V's next edge sweep
  /// propagates everything (initial worklist seeding, warm-start seeds,
  /// cycle merges). A flag, not a copy: materializing pts(V) into
  /// Delta[V] would duplicate the biggest sets in the graph — merge
  /// survivors are hubs — and the full-set duplicates dominated peak
  /// bitmap bytes. \p V must be a representative.
  void seedDelta(NodeId V) { FullDelta[V] = 1; }

  /// The pending frontier of \p N: the whole set when flagged full,
  /// otherwise the accumulated arrival delta.
  const PtsSet &pendingFrontier(NodeId N) const {
    return FullDelta[N] ? Pts[N] : Delta[N];
  }

  /// Whether \p N has anything pending: a non-empty arrival delta, or
  /// the full-set flag over a non-empty set.
  bool hasPending(NodeId N) const {
    return !pendingFrontier(N).empty();
  }

  /// Clears \p N's pending state after a clean (un-restarted) sweep:
  /// every successor and complex constraint has seen the frontier.
  void clearPending(NodeId N) {
    Delta[N].clearAndFree(Ctx);
    FullDelta[N] = 0;
  }

  /// Rewrites \p N's successor bitmap in place, routing every target
  /// through find() and dropping self references. Cycle collapses leave
  /// stale (merged-away) ids behind; several raw ids can map to one
  /// representative, and every sweep and every Tarjan search pays a
  /// find() plus a duplicate-propagation walk per stale id until they
  /// are squeezed out. Callers invoke this when a sweep observes a high
  /// stale density. Must not run while an iteration of Succs[N] is in
  /// flight.
  void compactSuccs(NodeId N) {
    SuccScratch.clear();
    for (uint32_t Raw : Succs[N]) {
      NodeId R = find(Raw);
      if (R != N)
        SuccScratch.set(R);
    }
    Succs[N] = SuccScratch;
  }

  /// Cancellation point for solver loops: delegates to the governor when
  /// one is installed, otherwise free.
  void governorStep() {
    if (Governor)
      Governor->onStep();
  }

  /// Merges the cycle members \p A and \p B (equal points-to sets in the
  /// final solution). \returns the surviving representative.
  NodeId merge(NodeId A, NodeId B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return A;
    NodeId Survivor = Reps.unite(A, B);
    NodeId Loser = Survivor == A ? B : A;
    Pts[Survivor].unionWith(Ctx, Pts[Loser]);
    Pts[Loser].clearAndFree(Ctx);
    if (UseDeltaPropagation) {
      // The survivor inherits the loser's edges (and vice versa), and
      // none of those edges has seen the merged set: re-pend everything.
      // The accumulated deltas are subsets of the pending whole — free
      // them (hub survivors collect the largest arrival deltas).
      FullDelta[Survivor] = 1;
      Delta[Survivor].clearAndFree(Ctx);
      Delta[Loser].clearAndFree(Ctx);
      FullDelta[Loser] = 0;
    }
    HcdSeen[Survivor].intersectWith(Ctx, HcdSeen[Loser]);
    HcdSeen[Loser].clearAndFree(Ctx);
    Succs[Survivor].unionWith(Succs[Loser]);
    Succs[Loser].clear();
    // Deref groups concatenate wholesale; each keeps its own resolution
    // frontier so no work is repeated.
    appendAndClear(Derefs[Survivor], Derefs[Loser]);
    appendAndClear(HcdTargets[Survivor], HcdTargets[Loser]);
    ++Stats.NodesCollapsed;
    // A merge can strictly grow the survivor's points-to set (the union of
    // the cycle members' sets), so the survivor must be rescheduled or the
    // growth never propagates onward. Solvers drain this log after every
    // collapse pass.
    MergeLog.push_back(Survivor);
    return Survivor;
  }

  /// Invokes \p Fn with the (current) representative of every merge
  /// survivor since the last drain, then clears the log. Worklist solvers
  /// must requeue these nodes after any cycle-collapse pass.
  template <typename Fn> void drainMergeLog(Fn Notify) {
    for (NodeId V : MergeLog)
      Notify(find(V));
    MergeLog.clear();
  }

  /// Resolves the complex constraints indexed at representative \p N: for
  /// every element v of pts(N), adds the edges implied by N's load and
  /// store constraints. \p Push is invoked with the representative of every
  /// node that gained an outgoing edge (Figure 1's worklist insertions).
  template <typename PushFn> void resolveComplex(NodeId N, PushFn Push) {
    resolveComplex(N, Push, [](NodeId, NodeId) {});
  }

  /// As above, additionally reporting every inserted edge (from, to) to
  /// \p OnEdge — used by solvers that maintain per-insertion structures
  /// (Pearce et al. 2003's dynamic topological order). \p OnEdge must not
  /// mutate the graph.
  template <typename PushFn, typename EdgeFn>
  void resolveComplex(NodeId N, PushFn Push, EdgeFn OnEdge) {
    resolveComplexFrom(N, Pts[N], Push, OnEdge);
  }

  /// resolveComplex() with an explicit candidate set: only elements of
  /// \p Candidates can enter the resolution frontier. Solvers that keep
  /// the difference-propagation invariant (every bit of pts(N) is in
  /// Delta[N] until resolved) pass Delta[N], so the frontier merge walks
  /// the (small) pending delta instead of the whole points-to set. The
  /// per-group Resolved frontier still deduplicates exactly, so passing
  /// a candidate set that over-approximates the unresolved bits is
  /// always safe — Pts[N] itself recovers the plain behaviour.
  template <typename PushFn, typename EdgeFn>
  void resolveComplexFrom(NodeId N, const PtsSet &Candidates, PushFn Push,
                          EdgeFn OnEdge) {
    std::vector<DerefGroup> &Groups = Derefs[N];
    if (Groups.empty())
      return;
    for (DerefGroup &G : Groups) {
      if (G.empty())
        continue;
      // Difference resolution: only elements this group hasn't seen.
      // (With UseDiffResolution off, Resolved stays empty and the full
      // set re-scans on every visit — the Figure-1 literal behaviour.)
      //
      // Nothing in this walk merges nodes, so representatives are
      // stable for its duration: find() each deref destination once
      // here instead of once per (element, deref) attempt — the
      // attempts are mostly duplicates, and the finds dominated the
      // profile.
      ScratchLoads.clear();
      ScratchStores.clear();
      bool AllOffsetZero = true;
      for (const Deref &D : G.Loads) {
        ScratchLoads.push_back(Deref{find(D.Other), D.Offset});
        AllOffsetZero &= D.Offset == 0;
      }
      for (const Deref &D : G.Stores) {
        ScratchStores.push_back(Deref{find(D.Other), D.Offset});
        AllOffsetZero &= D.Offset == 0;
      }
      // An offset-0 deref of V targets find(V) itself, and the collapsed
      // near-universal sets hold many elements per representative. Once
      // one element of a class has tried this group's offset-0 edges,
      // every later one would find them all present (the walk merges
      // nothing, so no edge moves): skip them, exactly. Fields
      // (non-zero offsets) of two objects in one class need not share a
      // representative, so those keep the per-element attempts.
      const uint64_t Epoch = nextRepMarkEpoch();
      uint64_t FrontierSize = 0, Attempts = 0;
      auto Visit = [&](NodeId V) {
        ++FrontierSize;
        NodeId R = find(V);
        bool FirstOfClass = RepMark[R] != Epoch;
        RepMark[R] = Epoch;
        if (!FirstOfClass && AllOffsetZero)
          return;
        auto TargetOf = [&](const Deref &D) -> NodeId {
          if (D.Offset == 0)
            return FirstOfClass ? R : InvalidNode;
          NodeId T = CS.offsetTarget(V, D.Offset);
          return T == InvalidNode ? T : find(T);
        };
        for (const Deref &D : ScratchLoads) {
          NodeId T = TargetOf(D);
          if (T == InvalidNode)
            continue;
          ++Attempts;
          if (addEdgeReps(T, D.Other)) {
            Push(T);
            OnEdge(T, D.Other);
          }
        }
        for (const Deref &D : ScratchStores) {
          NodeId T = TargetOf(D);
          if (T == InvalidNode)
            continue;
          ++Attempts;
          if (addEdgeReps(D.Other, T)) {
            Push(D.Other);
            OnEdge(D.Other, T);
          }
        }
      };
      if (UseDiffResolution) {
        // Fused kernel: emit the unseen elements and absorb them into
        // the frontier in one merge walk (the visitor touches Succs and
        // the worklist, never either operand).
        G.Resolved.unionWithVisitNew(Ctx, Candidates, Visit);
      } else {
        // Ablation mode re-scans the full set every visit (Figure-1
        // literal), candidate narrowing included.
        Pts[N].forEachDiff(Ctx, G.Resolved, Visit);
      }
      Stats.DiffElementsResolved += FrontierSize;
      Stats.ResolveEdgeAttempts += Attempts;
      obs::observe(obs::Hist::PtsDiffSize, FrontierSize);
    }
    // Every group is now resolved against the full current set:
    // consolidate back to one group with a shared frontier.
    if (Groups.size() > 1) {
      DerefGroup &First = Groups[0];
      for (size_t I = 1; I != Groups.size(); ++I) {
        appendAndClear(First.Loads, Groups[I].Loads);
        appendAndClear(First.Stores, Groups[I].Stores);
        Groups[I].Resolved.clearAndFree(Ctx);
      }
      Groups.resize(1);
      dedupDerefs(First.Loads);
      dedupDerefs(First.Stores);
    }
  }

  /// HCD's online rule: if representative \p N carries lazy tuples (n, a),
  /// preemptively collapse every member of pts(N) with a — no traversal
  /// needed. \p Push receives each collapse survivor. \returns find(N),
  /// which may have changed if N itself was collapsed.
  template <typename PushFn> NodeId applyHcd(NodeId N, PushFn Push) {
    if (HcdTargets[N].empty())
      return N;
    canonicalizeHcdTargets(N);
    // Only members not collapsed on a previous visit need work. Fused
    // kernel: collect them and absorb them into HcdSeen in one merge
    // walk (if nothing is new, the union is a no-op, preserving the old
    // early-return behaviour exactly). Under difference propagation the
    // pending delta bounds the members HcdSeen hasn't absorbed — every
    // bit of pts(N) stays in Delta[N] until N's pop completes, and this
    // runs at the start of the pop — so the merge walks the small delta
    // instead of the whole set.
    std::vector<NodeId> Members;
    const PtsSet &HcdCandidates =
        UseDeltaPropagation ? pendingFrontier(N) : Pts[N];
    HcdSeen[N].unionWithVisitNew(Ctx, HcdCandidates,
                                 [&](NodeId V) { Members.push_back(V); });
    if (Members.empty())
      return N;
    // Copy: merging appends the loser's targets to the survivor's list.
    std::vector<NodeId> Targets = HcdTargets[N];
    Stats.HcdMembers += Members.size();
    Stats.HcdMemberChecks += uint64_t(Targets.size()) * Members.size();
    for (NodeId T : Targets) {
      NodeId A = find(T);
      bool Merged = false;
      for (NodeId V : Members) {
        NodeId R = find(V);
        if (R == A)
          continue;
        A = merge(A, R);
        Merged = true;
        ++Stats.HcdCollapses;
      }
      // Requeue the survivor only when something collapsed into it —
      // unconditional pushes livelock once the survivor inherits a lazy
      // tuple that names itself.
      if (Merged)
        Push(A);
    }
    return find(N);
  }

  /// Runs cycle detection over the subgraph reachable from \p Root,
  /// collapsing every non-trivial SCC found (Nuutila-variant Tarjan).
  /// \returns the number of merges performed.
  uint32_t detectAndCollapseFrom(NodeId Root) {
    ++CurrentEpoch;
    NextDfsNum = 0;
    ++Stats.CycleDetectAttempts;
    obs::TraceSpan Span("tarjan", "solver");
    return tarjanFrom(find(Root));
  }

  /// Whole-graph sweep: detects and collapses every cycle currently in the
  /// constraint graph (PKH's periodic sweep). \returns merges performed.
  uint32_t detectAndCollapseAll() {
    ++CurrentEpoch;
    NextDfsNum = 0;
    ++Stats.CycleDetectAttempts;
    obs::TraceSpan Span("tarjan", "solver");
    uint32_t Merges = 0;
    for (NodeId V = 0; V != CS.numNodes(); ++V) {
      NodeId R = find(V);
      if (VisitEpoch[R] != CurrentEpoch)
        Merges += tarjanFrom(R);
    }
    return Merges;
  }

  /// Extracts the final solution (per-node representative + hash-consed
  /// bitmap sets). Sets are interned on the fly: a representative whose
  /// set equals an earlier representative's shares that physical set,
  /// and its transient copy is released immediately — so the extraction
  /// peak holds the solver's sets plus the *distinct* solution sets, not
  /// one private copy per representative.
  PointsToSolution extractSolution() {
    const uint32_t N = CS.numNodes();
    PointsToSolution Out(N);
    SetInterner Interner;
    SparseBitVector Scratch; // Heap-backed; canonical sets outlive the
                             // solver's arenas.
    for (NodeId V = 0; V != N; ++V) {
      NodeId R = find(V);
      if (R != V) {
        Out.setRep(V, R);
        continue;
      }
      Pts[R].toBitmap(Ctx, Scratch);
      if (!Scratch.empty())
        Out.setSharedSet(R, Interner.intern(std::move(Scratch)));
    }
    Interner.publish();
    obs::count(obs::Counter::SolverInternedHits, Interner.hits());
    obs::count(obs::Counter::SolverInternedMisses, Interner.misses());
    return Out;
  }

  const ConstraintSystem &CS;
  SolverStats &Stats;
  PtsCtx Ctx;
  UnionFind Reps;
  /// See SolverOptions::DifferenceResolution.
  bool UseDiffResolution = true;
  /// Difference propagation: the owning solver propagates per-node
  /// deltas instead of full sets, and this context maintains the
  /// pending-delta invariant across merges. Opt-in per solver — only
  /// LCD's edge loop uses it; enabling it without routing every
  /// propagation through propagateDelta/propagateFull loses updates.
  bool UseDeltaPropagation = false;
  /// Resource governor, or null when un-governed (see SolverOptions).
  SolveGovernor *Governor = nullptr;

  /// Element arena backing Pts/Delta/HcdSeen/Succs. Declared before
  /// every set vector so that destruction — including governor-trip
  /// unwinds — returns all elements to the live arena before its slabs
  /// are released.
  ElementArena Arena;

  std::vector<PtsSet> Pts;
  /// Per node: bits that arrived at pts(node) since its last completed
  /// edge sweep (difference propagation, Pearce et al. 2003). Only
  /// maintained when UseDeltaPropagation is set.
  std::vector<PtsSet> Delta;
  /// Per node: "the whole of pts(node) is pending" — set by seeding and
  /// cycle merges instead of copying the full set into Delta (see
  /// seedDelta). Cleared together with Delta on a clean sweep.
  std::vector<uint8_t> FullDelta;
  /// Per node: elements already collapsed by the HCD online rule.
  std::vector<PtsSet> HcdSeen;
  std::vector<SparseBitVector> Succs;
  /// Per node: complex-constraint batches with resolution frontiers.
  std::vector<std::vector<DerefGroup>> Derefs;
  /// HCD online table: when processing node n, collapse every member of
  /// pts(n) with each target. merge() appends lists, so one may hold
  /// duplicates until applyHcd() canonicalizes it on n's next visit.
  std::vector<std::vector<NodeId>> HcdTargets;

private:
  template <typename T>
  static void appendAndClear(std::vector<T> &Into, std::vector<T> &From) {
    Into.insert(Into.end(), std::make_move_iterator(From.begin()),
                std::make_move_iterator(From.end()));
    From.clear();
    From.shrink_to_fit();
  }

  DerefGroup &firstGroup(NodeId N) {
    if (Derefs[N].empty())
      Derefs[N].emplace_back();
    return Derefs[N].front();
  }

  /// Canonicalizes a deref list: route destinations through their current
  /// representatives and drop duplicates (merging concatenates lists from
  /// many members that often share constraints).
  void dedupDerefs(std::vector<Deref> &List) {
    if (List.size() < 2)
      return;
    for (Deref &D : List)
      D.Other = find(D.Other);
    std::sort(List.begin(), List.end());
    List.erase(std::unique(List.begin(), List.end()), List.end());
  }

  /// Canonicalizes \p N's lazy-target list: routes every target through
  /// find() and keeps only the first occurrence of each representative.
  /// merge() concatenates lists in O(1) and the solver constructors pile
  /// every OVS-merged tuple onto one representative, so without this the
  /// HCD rule multiplies each new member by hundreds of copies of the
  /// same few targets. Dropping a duplicate never drops a merge: once its
  /// first occurrence is processed, it and every member share one class.
  /// First-occurrence order rather than sorted order keeps the sequence
  /// of merges, and so each rank-tie survivor choice, unchanged.
  void canonicalizeHcdTargets(NodeId N) {
    std::vector<NodeId> &List = HcdTargets[N];
    const uint64_t Epoch = nextRepMarkEpoch();
    size_t Out = 0;
    for (NodeId T : List) {
      NodeId R = find(T);
      if (RepMark[R] != Epoch) {
        RepMark[R] = Epoch;
        List[Out++] = R;
      }
    }
    List.resize(Out);
  }

  /// Iterative Tarjan from \p Root over the representative graph; collapses
  /// completed non-trivial SCCs immediately (their members are finished, so
  /// the rest of the search only sees the survivor through find()).
  uint32_t tarjanFrom(NodeId Root) {
    struct Frame {
      NodeId Node;
      SparseBitVector::iterator EdgeIt;
      SparseBitVector::iterator EdgeEnd;
    };
    uint32_t Merges = 0;
    std::vector<Frame> Dfs;
    std::vector<NodeId> SccStack;

    auto push = [&](NodeId V) {
      VisitEpoch[V] = CurrentEpoch;
      DfsNum[V] = NextDfsNum++;
      LowLink[V] = DfsNum[V];
      OnStackEpoch[V] = CurrentEpoch;
      SccStack.push_back(V);
      Dfs.push_back(Frame{V, Succs[V].begin(), Succs[V].end()});
      ++Stats.NodesSearched;
      // Cancellation point: a whole-graph sweep can dominate a round, so
      // the deadline must be observable from inside the DFS. Safe here —
      // no merge is in flight when a node is first pushed.
      governorStep();
    };
    if (LowLink.size() < VisitEpoch.size())
      LowLink.resize(VisitEpoch.size());

    push(Root);
    while (!Dfs.empty()) {
      Frame &F = Dfs.back();
      NodeId U = F.Node;
      if (F.EdgeIt != F.EdgeEnd) {
        NodeId W = find(*F.EdgeIt);
        ++F.EdgeIt;
        if (W == U)
          continue;
        if (VisitEpoch[W] != CurrentEpoch) {
          push(W);
        } else if (OnStackEpoch[W] == CurrentEpoch &&
                   DfsNum[W] < LowLink[U]) {
          LowLink[U] = DfsNum[W];
        }
        continue;
      }
      Dfs.pop_back();
      if (!Dfs.empty()) {
        NodeId Parent = Dfs.back().Node;
        if (LowLink[U] < LowLink[Parent])
          LowLink[Parent] = LowLink[U];
      }
      if (LowLink[U] == DfsNum[U]) {
        // U roots an SCC: pop members; collapse if non-trivial. Members
        // above U on the stack merge into U's class; U itself is the
        // initial survivor.
        NodeId Survivor = U;
        uint64_t Members = 1;
        for (;;) {
          NodeId W = SccStack.back();
          SccStack.pop_back();
          OnStackEpoch[W] = 0;
          if (W == U)
            break;
          Survivor = merge(Survivor, W);
          ++Merges;
          ++Members;
        }
        if (Members > 1)
          obs::observe(obs::Hist::CycleSize, Members);
        // The survivor keeps a valid visited stamp so later edges into the
        // collapsed SCC are treated as done.
        VisitEpoch[Survivor] = CurrentEpoch;
        OnStackEpoch[Survivor] = 0;
      }
    }
    return Merges;
  }

  /// Scratch for resolveComplex's rep-hoisted deref lists (member to
  /// avoid per-group allocation; resolveComplex is not reentrant).
  std::vector<Deref> ScratchLoads, ScratchStores;
  /// Heap-backed scratch for compactSuccs (the rebuilt set is copied
  /// back into the node's arena-bound bitmap on assignment).
  SparseBitVector SuccScratch;

  /// Starts a pass over RepMark: a representative counts as seen in
  /// this pass iff its stamp equals the returned epoch.
  uint64_t nextRepMarkEpoch() {
    if (RepMark.empty())
      RepMark.assign(CS.numNodes(), 0);
    return ++RepMarkEpoch;
  }

  /// Per-representative seen-stamps shared by canonicalizeHcdTargets and
  /// resolveComplexFrom, whose passes never overlap (allocated on first
  /// use; 64-bit so the epoch never wraps).
  std::vector<uint64_t> RepMark;
  uint64_t RepMarkEpoch = 0;

  std::vector<NodeId> MergeLog;
  std::vector<uint32_t> VisitEpoch;
  std::vector<uint32_t> DfsNum;
  std::vector<uint32_t> LowLink;
  std::vector<uint32_t> OnStackEpoch;
  uint32_t CurrentEpoch = 0;
  uint32_t NextDfsNum = 0;
};

} // namespace ag

#endif // AG_CORE_SOLVERCONTEXT_H
