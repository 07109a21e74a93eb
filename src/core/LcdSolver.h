//===- LcdSolver.h - Lazy Cycle Detection solver ----------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Lazy Cycle Detection algorithm (Figure 2), optionally
/// combined with Hybrid Cycle Detection (the LCD+HCD headline algorithm).
/// Before propagating across an edge n -> z, if pts(n) == pts(z) and the
/// edge hasn't triggered a search before, a DFS rooted at z detects and
/// collapses cycles. The worklist is LRF-prioritized and divided into
/// current/next halves, as described in Section 5.1.
///
/// The edge loop uses difference propagation (Pearce et al. 2003): each
/// pop pushes only the bits that arrived at the node since its last
/// completed sweep, not the full set — the fixpoint's tail is dominated
/// by re-unions that change nothing, and deltas make those near-free.
/// New edges (complex-constraint resolution) and cycle merges carry the
/// full set once at birth; monotonicity gives the same unique least
/// fixpoint either way.
///
//===----------------------------------------------------------------------===//

#ifndef AG_CORE_LCDSOLVER_H
#define AG_CORE_LCDSOLVER_H

#include "adt/Worklist.h"
#include "core/HcdOffline.h"
#include "core/Solver.h"
#include "core/SolverContext.h"

#include <unordered_set>

namespace ag {

/// Lazy Cycle Detection (optionally +HCD), templated over the points-to
/// set representation.
template <typename PtsPolicy> class LcdSolver {
public:
  /// \p Hcd, when non-null, enables the hybrid online collapsing rule
  /// (LCD+HCD). \p SeedReps pre-merges nodes (OVS and/or HCD offline).
  LcdSolver(const ConstraintSystem &CS, SolverStats &Stats,
            const SolverOptions &Opts, const HcdResult *Hcd = nullptr,
            const std::vector<NodeId> *SeedReps = nullptr)
      : G(CS, Stats, SeedReps), Opts(Opts), W(Opts.Worklist) {
    G.UseDiffResolution = Opts.DifferenceResolution;
    G.UseDeltaPropagation = true;
    G.Governor = Opts.Governor;
    if (Hcd)
      for (const auto &[N, Target] : Hcd->Lazy)
        G.HcdTargets[G.find(N)].push_back(Target);
    // The R set ends up holding one entry per triggered edge — the same
    // order of magnitude as the copy-edge count. Reserving up front keeps
    // the hot loop's insertions from rehashing the table O(log n) times
    // (complex-constraint resolution roughly doubles the initial edges).
    if (Opts.LcdEdgeOnce)
      Triggered.reserve(2 * CS.countKind(ConstraintKind::Copy) + 16);
  }

  /// Runs to fixpoint and returns the solution.
  PointsToSolution solve() {
    const uint32_t N = G.CS.numNodes();
    W.grow(N);
    for (NodeId V = 0; V != N; ++V)
      if (G.find(V) == V && !G.Pts[V].empty()) {
        G.seedDelta(V);
        W.push(V);
      }
    return run();
  }

  /// Resumes from externally installed state: only \p Seeds (routed
  /// through find()) enter the initial worklist, instead of every node
  /// with a non-empty points-to set. The warm-start path installs a prior
  /// fixpoint into context() and seeds exactly the delta-touched nodes;
  /// monotonicity makes the result the least fixpoint of the full system
  /// as long as every node whose inputs changed is seeded.
  PointsToSolution solveFrom(const std::vector<NodeId> &Seeds) {
    W.grow(G.CS.numNodes());
    for (NodeId V : Seeds) {
      NodeId R = G.find(V);
      G.seedDelta(R);
      W.push(R);
    }
    return run();
  }

  SolverContext<PtsPolicy> &context() { return G; }

private:
  /// The Figure-2 worklist loop, from whatever W currently holds.
  PointsToSolution run() {
    auto Push = [this](NodeId V) { W.push(V); };
    // New edges found while walking a points-to set must not propagate
    // mid-walk (the union target can alias the walked set); collect
    // them and carry the full source set after the walk completes.
    std::vector<std::pair<NodeId, NodeId>> NewEdges;
    while (!W.empty()) {
      NodeId Node = G.find(W.pop());
      ++G.Stats.WorklistPops;
      if ((G.Stats.WorklistPops & 1023) == 0) {
        obs::observe(obs::Hist::WorklistDepth, W.size());
        if (obs::traceEnabled())
          obs::TraceRecorder::instance().counter("worklist_depth", W.size());
      }
      G.governorStep();

      // Figure 2 acts on a node popped because its set changed. With
      // nothing pending (no delta, no non-empty full set) there is
      // nothing to resolve, collapse or propagate, and probing the
      // trigger would only repeat equality walks across edges this node
      // has already swept. Clearing still retires an empty full flag.
      if (!G.hasPending(Node)) {
        G.clearPending(Node);
        continue;
      }

      // HCD first (Figure 5's check of the lazy table L).
      Node = G.applyHcd(Node, Push);

      // Resolve the complex constraints indexed at this node, with the
      // pending delta as the candidate frontier — the delta invariant
      // guarantees every unresolved bit is still in Delta[Node], so the
      // frontier merge walks the small delta instead of the whole set.
      // A brand-new edge has seen none of its source's set, so it gets
      // one full (birth) propagation; from then on deltas suffice.
      // Birth propagation retires Figure 1's push-the-source insertion
      // (requeueing the source only served to carry its set across the
      // new edge, which just happened), except when the destination is
      // Node itself: those bits arrive after this resolve pass ran, so
      // loop until Node stops growing — they must be resolved before
      // the delta they landed in is swept and cleared below.
      for (bool NodeGrew = true; NodeGrew;) {
        NodeGrew = false;
        NewEdges.clear();
        G.resolveComplexFrom(
            Node, G.pendingFrontier(Node), [](NodeId) {},
            [&](NodeId F, NodeId T) { NewEdges.push_back({F, T}); });
        for (auto [F, T] : NewEdges) {
          if (!G.propagateFull(F, T))
            continue;
          if (T == Node)
            NodeGrew = true;
          else
            W.push(T);
        }
      }
      // Propagate this node's pending delta along outgoing edges,
      // lazily sniffing for cycles. Pending state only grows during the
      // pop (merges re-pend the whole survivor), so the frontier is
      // still non-empty.
      assert(G.hasPending(Node) && "pending frontier lost mid-pop");
      bool Restart = false;
      bool FullPending = G.FullDelta[Node];
      uint32_t SweptTargets = 0, StaleTargets = 0;
      for (uint32_t Raw : G.Succs[Node]) {
        NodeId Z = G.find(Raw);
        ++SweptTargets;
        if (Z != Raw)
          ++StaleTargets;
        if (Z == Node)
          continue;
        bool Changed = FullPending ? G.propagateFull(Node, Z)
                                   : G.propagateDelta(Node, Z);
        if (Changed)
          W.push(Z);
        // The lazy trigger: identical points-to sets suggest a cycle —
        // but never retrigger on the same edge (rule R in Figure 2).
        // An unchanged destination is equal after the union iff it was
        // equal before, so probing equality post-union on the !Changed
        // path is exactly Figure 2's pre-propagation pts(n) == pts(z)
        // check. The R set is probed *before* the equality test: a hash
        // find is a handful of ns, while equality on sets that really
        // are equal (the common steady state on converged edges) walks
        // every word — and an edge that triggered once stays equal and
        // would pay that walk on every subsequent sweep. Same triggers
        // fire either way; only the probe cost moves.
        if (!Changed && !alreadyTriggered(Node, Z) &&
            G.Pts[Node].equals(G.Ctx, G.Pts[Z]) && markTriggered(Node, Z)) {
          if (obs::traceEnabled())
            obs::TraceRecorder::instance().instant("lcd_trigger", "solver",
                                                   "root", Z);
          uint32_t Merges = G.detectAndCollapseFrom(Z);
          if (obs::traceEnabled())
            obs::TraceRecorder::instance().instant("lcd_collapse", "solver",
                                                   "merges", Merges);
          if (Merges > 0) {
            // Re-queue every merge survivor (their points-to sets grew).
            // The edge iterator only becomes unsafe when Node itself was
            // involved: merged away, or the survivor whose edge set was
            // rewritten — then requeue Node and restart.
            NodeId NewRep = G.find(Node);
            bool NodeTouched = NewRep != Node;
            G.drainMergeLog([&](NodeId S) {
              W.push(S);
              NodeTouched |= S == NewRep;
            });
            if (NodeTouched) {
              W.push(NewRep);
              Restart = true;
              break;
            }
          }
        }
      }
      if (Restart)
        continue;
      // Clean sweep: every successor has absorbed this node's pending
      // frontier. (On Restart the node re-queues with its delta and
      // full-pending flag intact, so no arrival is ever dropped.)
      G.clearPending(Node);
      // Cycle collapses leave merged-away target ids behind; once a
      // quarter of this node's targets are stale, every future sweep
      // (and Tarjan search) is paying find() plus a duplicate no-op
      // union per stale id — rewrite the edge bitmap through find()
      // once instead.
      if (StaleTargets * 4 >= SweptTargets && SweptTargets >= 8)
        G.compactSuccs(Node);
    }
    return G.extractSolution();
  }

  /// The R set, split into a cheap pre-test and the insertion. With
  /// LcdEdgeOnce disabled (ablation), edges always (re)trigger.
  bool alreadyTriggered(NodeId From, NodeId To) {
    if (!Opts.LcdEdgeOnce)
      return false;
    ++G.Stats.LcdTriggerProbes;
    return Triggered.count((uint64_t(From) << 32) | To) != 0;
  }
  bool markTriggered(NodeId From, NodeId To) {
    if (!Opts.LcdEdgeOnce)
      return true;
    Triggered.insert((uint64_t(From) << 32) | To);
    return true;
  }

  SolverContext<PtsPolicy> G;
  SolverOptions Opts;
  Worklist W;
  std::unordered_set<uint64_t> Triggered;
};

} // namespace ag

#endif // AG_CORE_LCDSOLVER_H
