//===- BenchHarness.h - Shared benchmark plumbing ---------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common plumbing for the bench binaries: generate the six paper-shaped
/// suites, run OVS and the HCD offline pass, time solver runs, and track
/// peak memory per run. Every bench binary reads the scale factor from
/// argv[1] (scale 1.0 approximates the paper's sizes / 8).
///
//===----------------------------------------------------------------------===//

#ifndef AG_BENCH_BENCHHARNESS_H
#define AG_BENCH_BENCHHARNESS_H

#include "constraints/OfflineVariableSubstitution.h"
#include "core/HcdOffline.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <string>
#include <vector>

namespace ag {
namespace bench {

/// One generated-and-preprocessed benchmark suite.
struct Suite {
  std::string Name;
  uint64_t RawConstraints = 0;
  ConstraintSystem Reduced; ///< After OVS (the paper solves these).
  std::vector<NodeId> Rep;  ///< OVS representative map.
  HcdResult Hcd;
  double OvsSeconds = 0;
  double HcdOfflineSeconds = 0;
  uint64_t NumBase = 0, NumSimple = 0, NumComplex = 0;
};

/// Resolves the scale factor: argv[1] if present, else \p Default.
double scaleFromArgs(int Argc, char **Argv, double Default = 0.12);

/// Generates and preprocesses all six suites at \p Scale.
std::vector<Suite> loadSuites(double Scale);

/// Result of one timed solver run.
struct RunResult {
  double Seconds = 0;
  SolverStats Stats;
  uint64_t PeakBitmapBytes = 0;
  uint64_t PeakBddBytes = 0;
  uint64_t SolutionHash = 0;
  /// Memory-kernel counters for the run (arena slab high-water mark,
  /// set-interning tallies, and the extracted solution's sharing ratio).
  uint64_t ArenaPeakBytes = 0;
  uint64_t ArenaPeakSlabs = 0;
  uint64_t InternedHits = 0;
  uint64_t InternedMisses = 0;
  uint64_t PhysicalSetBytes = 0; ///< Bytes of distinct solution sets.
  uint64_t RoutedSetBytes = 0;   ///< Bytes if every rep held a private copy.
  /// Compact "ag.metrics.v8" JSON for this run, captured when the run was
  /// made with CaptureMetrics (empty otherwise). Bench binaries embed it
  /// verbatim into their BENCH_*.json rows instead of hand-plumbing
  /// individual counter fields.
  std::string MetricsJson;
};

/// Times one solve of \p S with \p Kind/\p Repr, capturing stats and peak
/// tracked memory. The HCD offline result is reused (its cost is reported
/// separately, as in Table 3). With \p CaptureMetrics, the metrics channel
/// is enabled and reset around the solve and the run's registry snapshot
/// lands in RunResult::MetricsJson.
RunResult runSolver(const Suite &S, SolverKind Kind, PtsRepr Repr,
                    bool CaptureMetrics = false);

/// Prints the standard header naming the experiment.
void printHeader(const char *Experiment, const char *PaperRef,
                 double Scale);

} // namespace bench
} // namespace ag

#endif // AG_BENCH_BENCHHARNESS_H
