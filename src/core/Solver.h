//===- Solver.h - Common solver API -----------------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The umbrella API for the nine solvers the paper evaluates: the three
/// prior state-of-the-art algorithms (HT, PKH, BLQ), the paper's two new
/// ones (LCD, HCD), and the four HCD-enhanced combinations, plus the naive
/// Figure-1 oracle. See solvers/Solve.h for the entry point.
///
//===----------------------------------------------------------------------===//

#ifndef AG_CORE_SOLVER_H
#define AG_CORE_SOLVER_H

#include "adt/Worklist.h"

#include <cstdint>
#include <string>

namespace ag {

class SolveGovernor;

/// The algorithms evaluated in the paper (Table 3).
enum class SolverKind {
  Naive,  ///< Figure 1: dynamic transitive closure, no cycle detection.
  HT,     ///< Heintze-Tardieu: pre-transitive graph + reachability queries.
  PKH,    ///< Pearce-Kelly-Hankin: explicit closure + periodic SCC sweeps.
  BLQ,    ///< Berndl-Lhotak-Qian: whole-solution BDD relations.
  LCD,    ///< Lazy Cycle Detection (this paper).
  HCD,    ///< Hybrid Cycle Detection standalone (this paper, Figure 5).
  HTHCD,  ///< HT + HCD.
  PKHHCD, ///< PKH + HCD.
  BLQHCD, ///< BLQ + HCD.
  LCDHCD, ///< LCD + HCD: the paper's headline algorithm.
};

/// Returns the paper's name for \p Kind ("HT", "LCD+HCD", ...).
const char *solverKindName(SolverKind Kind);

/// All evaluated kinds, in the paper's table order.
inline constexpr SolverKind AllSolverKinds[] = {
    SolverKind::HT,     SolverKind::PKH,    SolverKind::BLQ,
    SolverKind::LCD,    SolverKind::HCD,    SolverKind::HTHCD,
    SolverKind::PKHHCD, SolverKind::BLQHCD, SolverKind::LCDHCD,
};

/// True if \p Kind runs the HCD offline pass and online collapsing.
inline bool usesHcd(SolverKind Kind) {
  return Kind == SolverKind::HCD || Kind == SolverKind::HTHCD ||
         Kind == SolverKind::PKHHCD || Kind == SolverKind::BLQHCD ||
         Kind == SolverKind::LCDHCD;
}

/// True if \p Kind names one of the implemented algorithms. Entry points
/// use this to reject out-of-range values (e.g. from casts of external
/// input) as a structured error instead of undefined dispatch.
inline bool isValidSolverKind(SolverKind Kind) {
  switch (Kind) {
  case SolverKind::Naive:
  case SolverKind::HT:
  case SolverKind::PKH:
  case SolverKind::BLQ:
  case SolverKind::LCD:
  case SolverKind::HCD:
  case SolverKind::HTHCD:
  case SolverKind::PKHHCD:
  case SolverKind::BLQHCD:
  case SolverKind::LCDHCD:
    return true;
  }
  return false;
}

/// Points-to set representation (Tables 3/4 vs 5/6). BLQ ignores this: its
/// whole-solution relation is always one BDD.
enum class PtsRepr {
  Bitmap, ///< GCC-style sparse bitmaps.
  Bdd,    ///< One BDD per variable, shared manager.
};

/// Tuning knobs; the defaults reproduce the paper's configuration.
struct SolverOptions {
  /// Worklist scheduling for the worklist solvers (paper: LRF + divided).
  WorklistPolicy Worklist = WorklistPolicy::DividedLrf;

  /// LCD's "never trigger cycle detection on the same edge twice" rule.
  /// Disabling it is an ablation only — expect large slowdowns.
  bool LcdEdgeOnce = true;

  /// Initial BDD node-table capacity for BLQ ("we allocate an initial pool
  /// of memory for the BDDs ... independent of benchmark size").
  uint32_t BlqInitialCapacity = 1u << 22;

  /// Difference resolution of complex constraints (shared engineering in
  /// SolverContext). Off re-scans the full points-to set on every visit,
  /// as the paper's pseudo-code literally does — an ablation that shows
  /// why real implementations track frontiers.
  bool DifferenceResolution = true;

  /// Resource governor enforcing a SolveBudget, or null for an un-governed
  /// run (the default; costs one pointer test per counted operation).
  /// Not owned; must outlive the solve. solveGoverned() installs this.
  SolveGovernor *Governor = nullptr;
};

} // namespace ag

#endif // AG_CORE_SOLVER_H
