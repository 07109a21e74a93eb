//===- Statistics.h - Solver behaviour counters -----------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters for the three quantities Section 5.3 of the paper uses to
/// explain relative solver performance — nodes collapsed, nodes searched
/// during DFS, and points-to propagations — plus supporting counts for
/// LCD's trigger, complex-constraint resolution and warm-start re-solves.
/// Each solver owns one SolverStats and increments it inline.
///
/// Every consumer — mergeFrom, toString, and the observability layer's
/// MetricsRegistry::absorb — iterates the single forEachField enumerator,
/// so adding a counter in one place updates all of them: a field can no
/// longer be silently dropped from merging the way hand-written per-field
/// code allows.
///
//===----------------------------------------------------------------------===//

#ifndef AG_ADT_STATISTICS_H
#define AG_ADT_STATISTICS_H

#include <cassert>
#include <cstdint>
#include <string>

namespace ag {

/// Behaviour counters for one solver run.
struct SolverStats {
  /// Nodes merged away by cycle collapsing (a k-node SCC counts k-1).
  uint64_t NodesCollapsed = 0;
  /// Nodes visited by depth-first searches of the constraint graph
  /// (cycle detection and HT reachability queries). Pure overhead.
  uint64_t NodesSearched = 0;
  /// Points-to set propagations across constraint edges, i.e. evaluations
  /// of pts(dst) |= pts(src). The paper's most expensive operation.
  uint64_t Propagations = 0;
  /// Propagations that actually changed the destination set.
  uint64_t ChangedPropagations = 0;
  /// Cycle-detection attempts triggered (LCD) or sweeps performed (PKH).
  uint64_t CycleDetectAttempts = 0;
  /// Copy edges added to the online constraint graph (incl. from complex
  /// constraint resolution).
  uint64_t EdgesAdded = 0;
  /// Nodes popped off the worklist.
  uint64_t WorklistPops = 0;
  /// HCD preemptive collapses performed online.
  uint64_t HcdCollapses = 0;
  /// New points-to members visited by the shared HCD online rule
  /// (SolverContext::applyHcd: HCD, PKH+HCD, LCD+HCD).
  uint64_t HcdMembers = 0;
  /// (lazy target, new member) pairs that rule examined. With each
  /// node's target list canonical this stays within a small multiple of
  /// HcdMembers; duplicate targets inflate it.
  uint64_t HcdMemberChecks = 0;
  /// LCD R-set probes: hash lookups asking "has this edge triggered a
  /// cycle search before", made before the equality test on each swept
  /// edge whose propagation changed nothing. Only pops with something
  /// pending sweep, so this never exceeds Propagations minus
  /// ChangedPropagations. Like every counter here it repeats exactly
  /// across identical solves.
  uint64_t LcdTriggerProbes = 0;
  /// Points-to elements pushed through complex-constraint resolution
  /// frontiers (the difference-propagation work the MDE deduplication
  /// line of work targets — re-resolution shows up here).
  uint64_t DiffElementsResolved = 0;
  /// Edge insertions tried by complex-constraint resolution. Offset-0
  /// derefs are tried once per target representative per pass, so this
  /// stays far below (frontier elements x derefs) on collapsed sets.
  uint64_t ResolveEdgeAttempts = 0;
  /// Warm-start re-solves: nodes seeded into the initial worklist (the
  /// delta-touched set).
  uint64_t WarmSeededNodes = 0;
  /// Warm-start re-solves: delta constraints that were genuinely new.
  uint64_t WarmNewConstraints = 0;

  /// Number of counters; keep in sync with forEachField (asserted by
  /// mergeFrom).
  static constexpr size_t NumFields = 15;

  /// Invokes \p F with ("stable_name", field reference) for every counter,
  /// in declaration order. The single source of truth for merging,
  /// rendering and metrics absorption.
  template <typename Fn> void forEachField(Fn F) {
    F("nodes_collapsed", NodesCollapsed);
    F("nodes_searched", NodesSearched);
    F("propagations", Propagations);
    F("changed_propagations", ChangedPropagations);
    F("cycle_detect_attempts", CycleDetectAttempts);
    F("edges_added", EdgesAdded);
    F("worklist_pops", WorklistPops);
    F("hcd_collapses", HcdCollapses);
    F("hcd_members", HcdMembers);
    F("hcd_member_checks", HcdMemberChecks);
    F("lcd_trigger_probes", LcdTriggerProbes);
    F("diff_elements_resolved", DiffElementsResolved);
    F("resolve_edge_attempts", ResolveEdgeAttempts);
    F("warm_seeded_nodes", WarmSeededNodes);
    F("warm_new_constraints", WarmNewConstraints);
  }

  /// Const enumeration: \p F receives ("stable_name", value).
  template <typename Fn> void forEachField(Fn F) const {
    const_cast<SolverStats *>(this)->forEachField(
        [&](const char *Name, uint64_t &V) {
          F(Name, static_cast<uint64_t>(V));
        });
  }

  /// Accumulates \p RHS into this (used to fold warm-start stats into
  /// session totals, and per-suite stats into a benchmark run's totals).
  void mergeFrom(const SolverStats &RHS) {
    uint64_t Vals[NumFields];
    size_t I = 0;
    RHS.forEachField([&](const char *, uint64_t V) {
      assert(I < NumFields && "forEachField out of sync with NumFields");
      Vals[I++] = V;
    });
    assert(I == NumFields && "forEachField out of sync with NumFields");
    I = 0;
    forEachField([&](const char *, uint64_t &V) { V += Vals[I++]; });
  }

  /// Renders one counter per line, prefixed by \p Prefix.
  std::string toString(const std::string &Prefix = "") const {
    std::string Out;
    forEachField([&](const char *Name, uint64_t V) {
      Out += Prefix;
      Out += Name;
      Out += ": ";
      Out += std::to_string(V);
      Out += '\n';
    });
    return Out;
  }
};

} // namespace ag

#endif // AG_ADT_STATISTICS_H
