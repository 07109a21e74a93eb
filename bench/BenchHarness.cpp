//===- BenchHarness.cpp - Shared benchmark plumbing -----------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "adt/ElementArena.h"
#include "adt/InternTable.h"
#include "adt/MemTracker.h"
#include "obs/MetricsRegistry.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace ag;
using namespace ag::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

double ag::bench::scaleFromArgs(int Argc, char **Argv, double Default) {
  return Argc > 1 ? std::atof(Argv[1]) : Default;
}

std::vector<Suite> ag::bench::loadSuites(double Scale) {
  std::vector<Suite> Out;
  for (const BenchmarkSpec &Spec : paperSuites(Scale)) {
    Suite S;
    S.Name = Spec.Name;
    ConstraintSystem Raw = generateBenchmark(Spec);
    S.RawConstraints = Raw.constraints().size();

    auto T0 = std::chrono::steady_clock::now();
    OvsResult Ovs = runOfflineVariableSubstitution(Raw);
    S.OvsSeconds = secondsSince(T0);
    S.Reduced = std::move(Ovs.Reduced);
    S.Rep = std::move(Ovs.Rep);

    auto T1 = std::chrono::steady_clock::now();
    S.Hcd = runHcdOffline(S.Reduced);
    S.HcdOfflineSeconds = secondsSince(T1);

    S.NumBase = S.Reduced.countKind(ConstraintKind::AddressOf);
    S.NumSimple = S.Reduced.countKind(ConstraintKind::Copy);
    S.NumComplex = S.Reduced.countKind(ConstraintKind::Load) +
                   S.Reduced.countKind(ConstraintKind::Store);
    Out.push_back(std::move(S));
  }
  return Out;
}

RunResult ag::bench::runSolver(const Suite &S, SolverKind Kind, PtsRepr Repr,
                               bool CaptureMetrics) {
  RunResult R;
  bool MetricsWereOn = obs::metricsEnabled();
  if (CaptureMetrics) {
    obs::MetricsRegistry::instance().reset();
    obs::setMetricsEnabled(true);
  }
  MemTracker::instance().resetPeaks();
  ArenaStats::instance().resetPeaks();
  InternStats::instance().reset();
  uint64_t BitmapBase =
      MemTracker::instance().currentBytes(MemCategory::Bitmap);
  uint64_t BddBase =
      MemTracker::instance().currentBytes(MemCategory::BddTable);

  auto T0 = std::chrono::steady_clock::now();
  PointsToSolution Sol =
      solve(S.Reduced, Kind, Repr, &R.Stats, SolverOptions(), &S.Rep,
            usesHcd(Kind) ? &S.Hcd : nullptr);
  R.Seconds = secondsSince(T0);

  R.PeakBitmapBytes =
      MemTracker::instance().peakBytes(MemCategory::Bitmap) - BitmapBase;
  R.PeakBddBytes =
      MemTracker::instance().peakBytes(MemCategory::BddTable) - BddBase;
  R.SolutionHash = Sol.hash();
  R.ArenaPeakBytes = ArenaStats::instance().peakReservedBytes();
  R.ArenaPeakSlabs = ArenaStats::instance().peakSlabs();
  R.InternedHits = InternStats::instance().hits();
  R.InternedMisses = InternStats::instance().misses();
  PointsToSolution::SharingSummary Sh = Sol.sharingSummary();
  R.PhysicalSetBytes = Sh.PhysicalBytes;
  R.RoutedSetBytes = Sh.RoutedBytes;
  if (CaptureMetrics) {
    R.MetricsJson =
        obs::MetricsRegistry::instance().renderJson(/*Compact=*/true);
    obs::setMetricsEnabled(MetricsWereOn);
  }
  return R;
}

void ag::bench::printHeader(const char *Experiment, const char *PaperRef,
                            double Scale) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", Experiment);
  std::printf("reproduces: %s (Hardekopf & Lin, PLDI 2007)\n", PaperRef);
  std::printf("workload scale: %.2f (1.0 ~ paper sizes / 8)\n", Scale);
  std::printf("==============================================================="
              "=\n");
}
