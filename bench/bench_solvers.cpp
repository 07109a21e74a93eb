//===- bench_solvers.cpp - Solver comparison ------------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-readable solver comparison: for every algorithm (bitmap sets),
/// cold wall-clock time plus the min of three repetitions, an embedded
/// "ag.metrics.v8" snapshot and peak tracked bytes per suite. A "memory"
/// section records the memory-kernel story per suite (arena slab
/// high-water mark, set-interning hit rate, physical vs routed solution
/// bytes) from the LCD+HCD run. Results land in BENCH_solvers.json
/// (argv[2] or the working directory), together with the host's
/// hardware concurrency.
///
/// An "obs_overhead" section times the LCD/bitmap solve with all
/// observability channels off vs trace+metrics on: the disabled time is
/// the cross-PR guardrail number (instrumentation must stay one branch
/// per site when off), the ratio bounds the cost of turning it on.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "obs/MetricsRegistry.h"
#include "obs/Obs.h"
#include "obs/TraceRecorder.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace ag;
using namespace ag::bench;

namespace {

struct SolverRow {
  std::string Suite;
  std::string Kind;
  double ColdMs = 0; ///< First repetition (cold allocator/caches).
  double WallMs = 0; ///< Min of SolverReps repetitions.
  uint64_t WorklistPops = 0;
  uint64_t PeakBytes = 0;
  std::string MetricsJson; ///< Compact ag.metrics.v8 object for this run.
};

/// Memory-kernel numbers for one suite (from the cold LCD+HCD run).
struct MemoryRow {
  std::string Suite;
  uint64_t ArenaPeakBytes = 0;
  uint64_t ArenaPeakSlabs = 0;
  uint64_t InternedHits = 0;
  uint64_t InternedMisses = 0;
  uint64_t PeakBitmapBytes = 0;
  uint64_t PhysicalSetBytes = 0;
  uint64_t RoutedSetBytes = 0;
};

void appendJsonEscaped(std::string &Out, const std::string &S) {
  for (char C : S)
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else {
      Out += C;
    }
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = scaleFromArgs(Argc, Argv);
  std::string OutPath =
      Argc > 2 ? Argv[2] : std::string("BENCH_solvers.json");
  printHeader("Solver comparison", "Tables 3-5", Scale);
  unsigned HostCores = std::thread::hardware_concurrency();

  std::vector<Suite> Suites = loadSuites(Scale);
  std::vector<SolverRow> Rows;
  std::vector<MemoryRow> MemRows;
  // Per-kind repetitions: the first is recorded as the cold time, the
  // minimum of all reps as the steady-state wall time (min, not mean —
  // noise is one-sided).
  constexpr int SolverReps = 3;

  for (const Suite &S : Suites) {
    std::printf("%s:\n", S.Name.c_str());
    for (SolverKind Kind : AllSolverKinds) {
      RunResult R = runSolver(S, Kind, PtsRepr::Bitmap, SolverOptions(),
                              /*CaptureMetrics=*/true);
      SolverRow Row;
      Row.Suite = S.Name;
      Row.Kind = solverKindName(Kind);
      Row.ColdMs = R.Seconds * 1e3;
      Row.WallMs = Row.ColdMs;
      for (int Rep = 1; Rep != SolverReps; ++Rep) {
        RunResult Warm = runSolver(S, Kind, PtsRepr::Bitmap);
        Row.WallMs = std::min(Row.WallMs, Warm.Seconds * 1e3);
      }
      Row.WorklistPops = R.Stats.WorklistPops;
      Row.PeakBytes = R.PeakBitmapBytes + R.PeakBddBytes;
      Row.MetricsJson = std::move(R.MetricsJson);
      if (Kind == SolverKind::LCDHCD) {
        MemoryRow M;
        M.Suite = S.Name;
        M.ArenaPeakBytes = R.ArenaPeakBytes;
        M.ArenaPeakSlabs = R.ArenaPeakSlabs;
        M.InternedHits = R.InternedHits;
        M.InternedMisses = R.InternedMisses;
        M.PeakBitmapBytes = R.PeakBitmapBytes;
        M.PhysicalSetBytes = R.PhysicalSetBytes;
        M.RoutedSetBytes = R.RoutedSetBytes;
        MemRows.push_back(std::move(M));
      }
      std::printf("  %-8s %10.2f ms (cold %8.2f)  %10llu pops  %8.2f MB\n",
                  Row.Kind.c_str(), Row.WallMs, Row.ColdMs,
                  static_cast<unsigned long long>(Row.WorklistPops),
                  R.peakMb());
      Rows.push_back(std::move(Row));
    }
  }

  // --- Observability overhead guardrail: LCD/bitmap on the first suite,
  // best of OverheadReps with every channel off vs trace+metrics on. The
  // disabled number is what cross-PR comparisons gate on (<2% regression
  // vs an uninstrumented build); the ratio bounds the enabled cost.
  const Suite *Guard = &Suites.front();
  for (const Suite &S : Suites)
    if (S.RawConstraints > Guard->RawConstraints)
      Guard = &S;
  const Suite &GuardSuite = *Guard;
  constexpr int OverheadReps = 3;
  uint32_t SavedChannels =
      obs::ChannelBits.load(std::memory_order_relaxed);
  obs::ChannelBits.store(0, std::memory_order_relaxed);
  double DisabledBestMs = 0;
  for (int Rep = 0; Rep != OverheadReps; ++Rep) {
    RunResult R = runSolver(GuardSuite, SolverKind::LCD, PtsRepr::Bitmap);
    double Ms = R.Seconds * 1e3;
    if (Rep == 0 || Ms < DisabledBestMs)
      DisabledBestMs = Ms;
  }
  obs::setTraceEnabled(true);
  obs::setMetricsEnabled(true);
  double EnabledBestMs = 0;
  for (int Rep = 0; Rep != OverheadReps; ++Rep) {
    obs::TraceRecorder::instance().clear();
    obs::MetricsRegistry::instance().reset();
    RunResult R = runSolver(GuardSuite, SolverKind::LCD, PtsRepr::Bitmap);
    double Ms = R.Seconds * 1e3;
    if (Rep == 0 || Ms < EnabledBestMs)
      EnabledBestMs = Ms;
  }
  obs::TraceRecorder::instance().clear();
  obs::MetricsRegistry::instance().reset();
  obs::ChannelBits.store(SavedChannels, std::memory_order_relaxed);
  double OverheadRatio =
      DisabledBestMs > 0 ? EnabledBestMs / DisabledBestMs : 0;
  std::printf("\nobs overhead (LCD bitmap, %s, best of %d): off %.2f ms, "
              "trace+metrics %.2f ms, ratio %.3f\n",
              GuardSuite.Name.c_str(), OverheadReps, DisabledBestMs,
              EnabledBestMs, OverheadRatio);

  std::string Json = "{\n";
  Json += "  \"scale\": " + std::to_string(Scale) + ",\n";
  Json += "  \"host_cores\": " + std::to_string(HostCores) + ",\n";
  Json += "  \"solvers\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const SolverRow &R = Rows[I];
    Json += "    {\"suite\": \"";
    appendJsonEscaped(Json, R.Suite);
    Json += "\", \"kind\": \"";
    appendJsonEscaped(Json, R.Kind);
    Json += "\", \"wall_ms\": " + std::to_string(R.WallMs) +
            ", \"cold_ms\": " + std::to_string(R.ColdMs) +
            ", \"peak_tracked_bytes\": " + std::to_string(R.PeakBytes) +
            ", \"metrics\": " + R.MetricsJson + "}";
    Json += I + 1 == Rows.size() ? "\n" : ",\n";
  }
  Json += "  ],\n";
  Json += "  \"memory\": [\n";
  for (size_t I = 0; I != MemRows.size(); ++I) {
    const MemoryRow &M = MemRows[I];
    uint64_t Interned = M.InternedHits + M.InternedMisses;
    Json += "    {\"suite\": \"";
    appendJsonEscaped(Json, M.Suite);
    Json += "\", \"kind\": \"LCD+HCD\", \"arena_peak_bytes\": " +
            std::to_string(M.ArenaPeakBytes) +
            ", \"arena_peak_slabs\": " + std::to_string(M.ArenaPeakSlabs) +
            ", \"interned_hits\": " + std::to_string(M.InternedHits) +
            ", \"interned_misses\": " + std::to_string(M.InternedMisses) +
            ", \"interned_hit_rate\": " +
            std::to_string(Interned ? double(M.InternedHits) /
                                          double(Interned)
                                    : 0.0) +
            ", \"peak_bitmap_bytes\": " +
            std::to_string(M.PeakBitmapBytes) +
            ", \"physical_set_bytes\": " +
            std::to_string(M.PhysicalSetBytes) +
            ", \"routed_set_bytes\": " + std::to_string(M.RoutedSetBytes) +
            "}";
    Json += I + 1 == MemRows.size() ? "\n" : ",\n";
  }
  Json += "  ],\n";
  Json += "  \"obs_overhead\": {\"suite\": \"";
  appendJsonEscaped(Json, GuardSuite.Name);
  Json += "\", \"kind\": \"LCD\", \"repr\": \"bitmap\", \"reps\": " +
          std::to_string(OverheadReps) +
          ", \"disabled_best_ms\": " + std::to_string(DisabledBestMs) +
          ", \"enabled_best_ms\": " + std::to_string(EnabledBestMs) +
          ", \"enabled_over_disabled\": " + std::to_string(OverheadRatio) +
          "}\n";
  Json += "}\n";

  if (std::FILE *F = std::fopen(OutPath.c_str(), "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
    std::printf("\nwrote %s (host cores: %u)\n", OutPath.c_str(), HostCores);
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  return 0;
}
