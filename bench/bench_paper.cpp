//===- bench_paper.cpp - The paper's evaluation matrix --------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Solves the paper's whole evaluation matrix once: the nine solvers with
/// bitmap points-to sets and the seven non-BLQ solvers with BDD sets (BLQ
/// is BDD-relational either way, so Table 5 leaves it out), on each of the
/// six suites. Tables 2-6, Figures 6-10 and the Section 5.3 counts are all
/// views of this one matrix; tools/paper_tables.py renders them from the
/// JSON written here.
///
/// Usage: bench_paper <scale> [out.json]   (default BENCH_paper.json)
///
/// The JSON holds one row per cell (wall and cold time, peak tracked
/// bytes, solution hash and the cell's compact "ag.metrics.v8" document,
/// captured on its first run), Table 2's per-suite counts with the OVS and
/// HCD offline times, a "memory" section (arena peak, set interning,
/// physical vs routed solution bytes of each suite's LCD+HCD bitmap run)
/// and an "obs_overhead" section: LCD/bitmap on the largest suite, best of
/// three with every observability channel off vs trace+metrics on.
///
/// Exits 1, naming the cells, if a suite's solution hashes differ across
/// kinds or set types.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "obs/MetricsRegistry.h"
#include "obs/Obs.h"
#include "obs/TraceRecorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ag;
using namespace ag::bench;

namespace {

/// Each cell's wall time is the minimum of this many runs (min, not mean:
/// noise is one-sided)...
constexpr int Reps = 3;
/// ...unless its first, cold run took at least this long: BLQ's
/// multi-minute solves would otherwise triple the whole matrix.
constexpr double SingleRunMs = 1000;

std::string fmt(const char *Format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char *Format, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  return Buf;
}

const char *reprName(PtsRepr Repr) {
  return Repr == PtsRepr::Bitmap ? "bitmap" : "bdd";
}

std::string suiteJson(const Suite &S) {
  return fmt("{\"suite\": \"%s\", \"nodes\": %u, \"original\": %" PRIu64
             ", \"reduced\": %zu, \"base\": %" PRIu64 ", \"simple\": %" PRIu64
             ", \"complex\": %" PRIu64 ", \"ovs_s\": %.6f, "
             "\"hcd_offline_s\": %.6f}",
             S.Name.c_str(), S.Reduced.numNodes(), S.RawConstraints,
             S.Reduced.constraints().size(), S.NumBase, S.NumSimple,
             S.NumComplex, S.OvsSeconds, S.HcdOfflineSeconds);
}

std::string memoryJson(const Suite &S, const RunResult &R) {
  uint64_t Interned = R.InternedHits + R.InternedMisses;
  return fmt("{\"suite\": \"%s\", \"kind\": \"LCD+HCD\", "
             "\"arena_peak_bytes\": %" PRIu64 ", \"arena_peak_slabs\": %" PRIu64
             ", \"interned_hits\": %" PRIu64 ", \"interned_misses\": %" PRIu64
             ", \"interned_hit_rate\": %.6f, \"peak_bitmap_bytes\": %" PRIu64
             ", \"physical_set_bytes\": %" PRIu64
             ", \"routed_set_bytes\": %" PRIu64 "}",
             S.Name.c_str(), R.ArenaPeakBytes, R.ArenaPeakSlabs,
             R.InternedHits, R.InternedMisses,
             Interned ? double(R.InternedHits) / double(Interned) : 0.0,
             R.PeakBitmapBytes, R.PhysicalSetBytes, R.RoutedSetBytes);
}

/// Best of \p Reps LCD/bitmap solves of \p S, in milliseconds.
double bestLcdMs(const Suite &S) {
  double Best = 0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    obs::TraceRecorder::instance().clear();
    obs::MetricsRegistry::instance().reset();
    double Ms = runSolver(S, SolverKind::LCD, PtsRepr::Bitmap).Seconds * 1e3;
    if (Rep == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = scaleFromArgs(Argc, Argv);
  std::string OutPath = Argc > 2 ? Argv[2] : "BENCH_paper.json";
  printHeader("The evaluation matrix: nine solvers x six suites x "
              "{bitmap, BDD}",
              "Tables 2-6, Figures 6-10, Section 5.3", Scale);

  std::vector<Suite> Suites = loadSuites(Scale);
  std::vector<std::string> SuiteRows, Cells, MemRows, Disagree;
  for (const Suite &S : Suites) {
    SuiteRows.push_back(suiteJson(S));
    std::printf("%s:\n", S.Name.c_str());
    std::optional<uint64_t> RefHash;
    for (PtsRepr Repr : {PtsRepr::Bitmap, PtsRepr::Bdd}) {
      for (SolverKind Kind : AllSolverKinds) {
        if (Repr == PtsRepr::Bdd &&
            (Kind == SolverKind::BLQ || Kind == SolverKind::BLQHCD))
          continue;
        RunResult R = runSolver(S, Kind, Repr, /*CaptureMetrics=*/true);
        double ColdMs = R.Seconds * 1e3, WallMs = ColdMs;
        for (int Rep = 1; Rep != Reps && ColdMs < SingleRunMs; ++Rep)
          WallMs = std::min(WallMs, runSolver(S, Kind, Repr).Seconds * 1e3);
        uint64_t PeakBytes = R.PeakBitmapBytes + R.PeakBddBytes;
        if (!RefHash)
          RefHash = R.SolutionHash;
        if (R.SolutionHash != *RefHash)
          Disagree.push_back(fmt("%s/%s/%s", S.Name.c_str(),
                                 solverKindName(Kind), reprName(Repr)));
        std::printf("  %-8s %-6s %10.2f ms (cold %10.2f)  %8.2f MB  "
                    "hash %016" PRIx64 "\n",
                    solverKindName(Kind), reprName(Repr), WallMs, ColdMs,
                    double(PeakBytes) / (1024.0 * 1024.0), R.SolutionHash);
        std::fflush(stdout);
        Cells.push_back(
            fmt("{\"suite\": \"%s\", \"kind\": \"%s\", \"repr\": \"%s\", "
                "\"wall_ms\": %.6f, \"cold_ms\": %.6f, "
                "\"peak_tracked_bytes\": %" PRIu64 ", \"solution_hash\": "
                "\"%016" PRIx64 "\", \"metrics\": ",
                S.Name.c_str(), solverKindName(Kind), reprName(Repr), WallMs,
                ColdMs, PeakBytes, R.SolutionHash) +
            R.MetricsJson + "}");
        if (Kind == SolverKind::LCDHCD && Repr == PtsRepr::Bitmap)
          MemRows.push_back(memoryJson(S, R));
      }
    }
  }

  // Observability overhead on the largest suite: every channel off vs
  // trace+metrics on.
  const Suite *Guard = &Suites.front();
  for (const Suite &S : Suites)
    if (S.RawConstraints > Guard->RawConstraints)
      Guard = &S;
  uint32_t SavedChannels = obs::ChannelBits.load(std::memory_order_relaxed);
  obs::ChannelBits.store(0, std::memory_order_relaxed);
  double DisabledMs = bestLcdMs(*Guard);
  obs::setTraceEnabled(true);
  obs::setMetricsEnabled(true);
  double EnabledMs = bestLcdMs(*Guard);
  obs::TraceRecorder::instance().clear();
  obs::MetricsRegistry::instance().reset();
  obs::ChannelBits.store(SavedChannels, std::memory_order_relaxed);
  double Ratio = DisabledMs > 0 ? EnabledMs / DisabledMs : 0;
  std::printf("\nobs overhead (LCD bitmap, %s, best of %d): off %.2f ms, "
              "trace+metrics %.2f ms, ratio %.3f\n",
              Guard->Name.c_str(), Reps, DisabledMs, EnabledMs, Ratio);

  auto list = [](const std::vector<std::string> &Items) {
    std::string Out = "[\n";
    for (size_t I = 0; I != Items.size(); ++I)
      Out += "    " + Items[I] + (I + 1 == Items.size() ? "\n" : ",\n");
    return Out + "  ]";
  };
  std::string Json =
      fmt("{\n  \"schema\": \"ag.bench_paper.v1\",\n  \"scale\": %.6f,\n"
          "  \"host_cores\": %u,\n",
          Scale, std::thread::hardware_concurrency());
  Json += "  \"suites\": " + list(SuiteRows) + ",\n";
  Json += "  \"cells\": " + list(Cells) + ",\n";
  Json += "  \"memory\": " + list(MemRows) + ",\n";
  Json += fmt("  \"obs_overhead\": {\"suite\": \"%s\", \"kind\": \"LCD\", "
              "\"repr\": \"bitmap\", \"reps\": %d, \"disabled_best_ms\": "
              "%.6f, \"enabled_best_ms\": %.6f, \"enabled_over_disabled\": "
              "%.6f}\n}\n",
              Guard->Name.c_str(), Reps, DisabledMs, EnabledMs, Ratio);

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fputs(Json.c_str(), F);
  std::fclose(F);
  std::printf("\nwrote %s (%zu cells)\n", OutPath.c_str(), Cells.size());

  if (!Disagree.empty()) {
    std::fprintf(stderr, "error: solution hashes disagree with the suite's "
                         "first cell:");
    for (const std::string &C : Disagree)
      std::fprintf(stderr, " %s", C.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }
  return 0;
}
