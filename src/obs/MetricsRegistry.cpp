//===- MetricsRegistry.cpp - Process-wide metrics -------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsRegistry.h"

#include <cassert>

using namespace ag;
using namespace ag::obs;

namespace {

// Names in enum order. Solver.* entries must match SolverStats field order
// (absorb() pairs them by index).
constexpr const char *CounterNames[] = {
    "solver.nodes_collapsed",
    "solver.nodes_searched",
    "solver.propagations",
    "solver.changed_propagations",
    "solver.cycle_detect_attempts",
    "solver.edges_added",
    "solver.worklist_pops",
    "solver.hcd_collapses",
    "solver.hcd_members",
    "solver.hcd_member_checks",
    "solver.lcd_trigger_probes",
    "solver.diff_elements_resolved",
    "solver.resolve_edge_attempts",
    "solver.warm_seeded_nodes",
    "solver.warm_new_constraints",
    "solver.runs",
    "solver.fallbacks",
    "governor.trips",
    "bdd.cache_hits",
    "bdd.cache_misses",
    "serve.queries",
    "serve.lru_hits",
    "serve.lru_misses",
    "serve.snapshot_loads",
    "serve.warm_starts",
    "solver.interned_hits",
    "solver.interned_misses",
    "demand.queries",
    "demand.memo_hits",
    "demand.memo_misses",
    "demand.steps",
    "demand.escalations",
    "demand.invalidations",
    "serve.requests",
    "serve.tier.lru",
    "serve.tier.memo",
    "serve.tier.demand",
    "serve.tier.escalation",
    "serve.tier.snapshot",
    "serve.tier.warm_start",
    "serve.slow_queries",
    "serve.events_emitted",
    "serve.events_dropped",
    "serve.conns_accepted",
    "serve.conns_rejected",
    "serve.conns_idle_closed",
};
static_assert(sizeof(CounterNames) / sizeof(CounterNames[0]) ==
                  unsigned(Counter::NumCounters),
              "counter name table out of sync");
static_assert(unsigned(Counter::SolverRuns) == SolverStats::NumFields,
              "solver.* counter block out of sync with SolverStats");

constexpr const char *GaugeNames[] = {
    "mem.peak_bitmap_bytes",
    "mem.peak_bdd_bytes",
    "mem.peak_other_bytes",
    "mem.peak_joint_bytes",
    "mem.arena_reserved_bytes",
    "mem.arena_slabs",
    "serve.latency.p50.query",
    "serve.latency.p90.query",
    "serve.latency.p99.query",
    "serve.latency.p50.mutate",
    "serve.latency.p90.mutate",
    "serve.latency.p99.mutate",
    "serve.latency.p50.admin",
    "serve.latency.p90.admin",
    "serve.latency.p99.admin",
    "serve.conns_active",
};
static_assert(sizeof(GaugeNames) / sizeof(GaugeNames[0]) ==
                  unsigned(Gauge::NumGauges),
              "gauge name table out of sync");

constexpr const char *HistNames[] = {
    "solver.pts_diff_size",
    "solver.cycle_size",
    "solver.worklist_depth",
    "serve.query_batch",
    "demand.frontier",
    "serve.request_micros",
};
static_assert(sizeof(HistNames) / sizeof(HistNames[0]) ==
                  unsigned(Hist::NumHists),
              "histogram name table out of sync");

} // namespace

const char *ag::obs::counterName(Counter C) {
  return CounterNames[unsigned(C)];
}
const char *ag::obs::gaugeName(Gauge G) { return GaugeNames[unsigned(G)]; }
const char *ag::obs::histName(Hist H) { return HistNames[unsigned(H)]; }

MetricsRegistry &MetricsRegistry::instance() {
  static MetricsRegistry R;
  return R;
}

void MetricsRegistry::absorb(const SolverStats &S) {
  size_t I = 0;
  S.forEachField([&](const char *, uint64_t V) {
    if (V)
      add(static_cast<Counter>(I), V);
    ++I;
  });
  assert(I == SolverStats::NumFields && "absorb out of sync");
}

void MetricsRegistry::reset() {
  for (Shard &S : Shards)
    for (auto &C : S.Counts)
      C.store(0, std::memory_order_relaxed);
  for (auto &G : Gauges)
    G.store(0, std::memory_order_relaxed);
  for (HistData &H : Hists) {
    for (auto &B : H.Buckets)
      B.store(0, std::memory_order_relaxed);
    H.Count.store(0, std::memory_order_relaxed);
    H.Sum.store(0, std::memory_order_relaxed);
  }
}

std::string MetricsRegistry::renderText() const {
  std::string Out;
  for (unsigned I = 0; I != unsigned(Counter::NumCounters); ++I) {
    Out += CounterNames[I];
    Out += ": ";
    Out += std::to_string(counterValue(static_cast<Counter>(I)));
    Out += '\n';
  }
  for (unsigned I = 0; I != unsigned(Gauge::NumGauges); ++I) {
    Out += GaugeNames[I];
    Out += ": ";
    Out += std::to_string(gaugeValue(static_cast<Gauge>(I)));
    Out += '\n';
  }
  for (unsigned I = 0; I != unsigned(Hist::NumHists); ++I) {
    Hist H = static_cast<Hist>(I);
    uint64_t N = histCount(H);
    Out += HistNames[I];
    Out += ": count ";
    Out += std::to_string(N);
    Out += ", sum ";
    Out += std::to_string(histSum(H));
    if (N) {
      Out += ", mean ";
      Out += std::to_string(histSum(H) / N);
    }
    Out += '\n';
  }
  return Out;
}

std::string MetricsRegistry::renderJson(bool Compact) const {
  const char *Nl = Compact ? "" : "\n";
  const char *In1 = Compact ? "" : "  ";
  const char *In2 = Compact ? "" : "    ";
  std::string Out = "{";
  Out += Nl;
  Out += In1;
  Out += "\"schema\": \"ag.metrics.v8\",";
  Out += Nl;

  Out += In1;
  Out += "\"counters\": {";
  Out += Nl;
  for (unsigned I = 0; I != unsigned(Counter::NumCounters); ++I) {
    Out += In2;
    Out += '"';
    Out += CounterNames[I];
    Out += "\": ";
    Out += std::to_string(counterValue(static_cast<Counter>(I)));
    if (I + 1 != unsigned(Counter::NumCounters))
      Out += ',';
    Out += Nl;
  }
  Out += In1;
  Out += "},";
  Out += Nl;

  Out += In1;
  Out += "\"gauges\": {";
  Out += Nl;
  for (unsigned I = 0; I != unsigned(Gauge::NumGauges); ++I) {
    Out += In2;
    Out += '"';
    Out += GaugeNames[I];
    Out += "\": ";
    Out += std::to_string(gaugeValue(static_cast<Gauge>(I)));
    if (I + 1 != unsigned(Gauge::NumGauges))
      Out += ',';
    Out += Nl;
  }
  Out += In1;
  Out += "},";
  Out += Nl;

  Out += In1;
  Out += "\"histograms\": {";
  Out += Nl;
  for (unsigned I = 0; I != unsigned(Hist::NumHists); ++I) {
    Hist H = static_cast<Hist>(I);
    Out += In2;
    Out += '"';
    Out += HistNames[I];
    Out += "\": {\"count\": ";
    Out += std::to_string(histCount(H));
    Out += ", \"sum\": ";
    Out += std::to_string(histSum(H));
    Out += ", \"buckets\": [";
    // Trailing zero buckets are trimmed for size; bucket k covers values
    // in [2^(k-1), 2^k) and the array length is part of the payload, not
    // the schema.
    unsigned Last = NumBuckets;
    while (Last > 0 && histBucket(H, Last - 1) == 0)
      --Last;
    for (unsigned B = 0; B != Last; ++B) {
      if (B)
        Out += ", ";
      Out += std::to_string(histBucket(H, B));
    }
    Out += "]}";
    if (I + 1 != unsigned(Hist::NumHists))
      Out += ',';
    Out += Nl;
  }
  Out += In1;
  Out += "}";
  Out += Nl;
  Out += "}";
  Out += Nl;
  return Out;
}
