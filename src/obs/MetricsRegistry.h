//===- MetricsRegistry.h - Process-wide metrics -----------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: a fixed universe of named
/// counters (lock-free, sharded per thread to avoid cache-line ping-pong),
/// gauges (monotone high-water marks), and log2-bucket histograms. The
/// registry absorbs each run's SolverStats (superseding ad-hoc plumbing of
/// individual fields through bench/tool code) and additionally collects
/// signals the flat struct never carried: points-to diff sizes, worklist
/// depth, LRU hit/miss, collapsed cycle sizes, and BDD operation-cache hit
/// rates.
///
/// Rendering is deterministic: renderJson() emits every counter, gauge and
/// histogram in enum order with a schema tag ("ag.metrics.v8"), so two runs
/// at the same seed produce bit-identical files and CI can validate the
/// key set against tests/metrics_schema.json (schema stability rules in
/// DESIGN.md §11; v1 -> v2 added the set-interning counters and the
/// arena gauges; v2 -> v3 added the demand.* counters and the demand
/// frontier histogram; v3 -> v4 added the serve request/tier/event
/// counters, the serve.latency.* quantile gauges and the request-latency
/// histogram; v4 -> v5 added the serve.conns_* connection counters and
/// the serve.conns_active gauge for the TCP front-end; v5 -> v6 removed
/// the two solver.parallel_* round/epoch counters with the parallel
/// solver; v6 -> v7 added solver.hcd_members and
/// solver.hcd_member_checks, the HCD online rule's work counts; v7 -> v8
/// added solver.resolve_edge_attempts, complex-constraint resolution's
/// edge insertions tried).
///
//===----------------------------------------------------------------------===//

#ifndef AG_OBS_METRICSREGISTRY_H
#define AG_OBS_METRICSREGISTRY_H

#include "adt/Statistics.h"
#include "obs/Obs.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace ag {
namespace obs {

/// Counter universe. The first SolverStats::NumFields entries mirror
/// SolverStats in field order — absorb() relies on that correspondence.
enum class Counter : unsigned {
  // --- absorbed from SolverStats (declaration order must match) ---
  SolverNodesCollapsed,
  SolverNodesSearched,
  SolverPropagations,
  SolverChangedPropagations,
  SolverCycleDetectAttempts,
  SolverEdgesAdded,
  SolverWorklistPops,
  SolverHcdCollapses,
  SolverHcdMembers,
  SolverHcdMemberChecks,
  SolverLcdTriggerProbes,
  SolverDiffElementsResolved,
  SolverResolveEdgeAttempts,
  SolverWarmSeededNodes,
  SolverWarmNewConstraints,
  // --- incremented directly at instrumentation points ---
  SolverRuns,           ///< solve() completions (any kind).
  SolverFallbacks,      ///< Steensgaard degradations substituted.
  GovernorTrips,        ///< Budget trips (any reason).
  BddCacheHits,         ///< BDD operation-cache hits.
  BddCacheMisses,       ///< BDD operation-cache misses.
  ServeQueries,         ///< Queries answered by QueryEngine.
  ServeLruHits,         ///< Result-cache hits across both caches.
  ServeLruMisses,       ///< Result-cache misses across both caches.
  ServeSnapshotLoads,   ///< Snapshot files read successfully.
  ServeWarmStarts,      ///< Warm-start re-solves attempted.
  SolverInternedHits,   ///< Extracted sets deduplicated onto a canonical
                        ///< set (hash-consing hits).
  SolverInternedMisses, ///< Extracted sets that became a new canonical set.
  DemandQueries,        ///< Queries answered by the demand tier.
  DemandMemoHits,       ///< Demand queries answered from the certified memo.
  DemandMemoMisses,     ///< Demand queries that ran a deduction fixpoint.
  DemandSteps,          ///< Deduction steps charged by the demand solver.
  DemandEscalations,    ///< Demand queries escalated to an exhaustive solve.
  DemandInvalidations,  ///< Memo entries invalidated by constraint deltas.
  ServeRequests,        ///< REPL requests handled by ServeSession.
  ServeTierLru,         ///< Requests that probed the epoch's answer cache.
  ServeTierMemo,        ///< Requests that probed the demand memo.
  ServeTierDemand,      ///< Requests that ran a governed demand deduction.
  ServeTierEscalation,  ///< Requests escalated to an exhaustive solve.
  ServeTierSnapshot,    ///< Requests that scanned the snapshot solution.
  ServeTierWarmStart,   ///< Requests that ran a warm-start re-solve.
  ServeSlowQueries,     ///< Requests captured by the slow-query log.
  ServeEventsEmitted,   ///< Wide events enqueued to the event log.
  ServeEventsDropped,   ///< Wide events dropped by the bounded queue.
  ServeConnsAccepted,   ///< TCP/unix connections accepted by the Server.
  ServeConnsRejected,   ///< Connections refused at the --max-conns cap.
  ServeConnsIdleClosed, ///< Connections closed by the idle timeout.
  NumCounters,
};

/// Gauge universe. The mem.* gauges are monotone high-water marks
/// (maxGauge); the serve.latency.* gauges are last-published quantile
/// snapshots (setGauge) refreshed by LatencyTracker::publishGauges at
/// observation points — class-major, quantile-minor order, which
/// publishGauges indexes arithmetically.
enum class Gauge : unsigned {
  MemPeakBitmapBytes,
  MemPeakBddBytes,
  MemPeakOtherBytes,
  MemPeakJointBytes,
  MemArenaReservedBytes, ///< Peak slab bytes reserved by element arenas.
  MemArenaSlabs,         ///< Peak live arena slab count.
  ServeLatencyP50Query,  ///< Sliding-window latency quantiles (micros)
  ServeLatencyP90Query,  ///< per command class; see QuantileWindow.h.
  ServeLatencyP99Query,
  ServeLatencyP50Mutate,
  ServeLatencyP90Mutate,
  ServeLatencyP99Mutate,
  ServeLatencyP50Admin,
  ServeLatencyP90Admin,
  ServeLatencyP99Admin,
  ServeConnsActive, ///< Live Server connections (setGauge on accept/close).
  NumGauges,
};

/// Histogram universe (log2 buckets: value v lands in bucket bit_width(v),
/// i.e. bucket k holds values in [2^(k-1), 2^k), bucket 0 holds zero).
enum class Hist : unsigned {
  PtsDiffSize,   ///< New elements per complex-resolution frontier pass.
  CycleSize,     ///< Members per collapsed SCC (size >= 2).
  WorklistDepth, ///< Worklist depth sampled every 1024 pops / per round.
  QueryBatch,    ///< aliasbatch request sizes.
  DemandFrontier, ///< Demanded nodes per demand-solver fixpoint.
  ServeRequestMicros, ///< End-to-end serve request latency (micros).
  NumHists,
};

/// Stable machine-readable names ("solver.propagations", ...).
const char *counterName(Counter C);
const char *gaugeName(Gauge G);
const char *histName(Hist H);

/// Process-wide metrics store. All mutators are thread-safe; counters are
/// sharded so concurrent workers do not contend on one cache line.
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  static constexpr unsigned NumShards = 8;
  /// log2 buckets 0..64 (bit_width of a uint64_t value).
  static constexpr unsigned NumBuckets = 65;

  void add(Counter C, uint64_t N = 1) {
    Shards[shardIndex()].Counts[unsigned(C)].fetch_add(
        N, std::memory_order_relaxed);
  }

  /// Raises the gauge to \p V if above its current value.
  void maxGauge(Gauge G, uint64_t V) {
    std::atomic<uint64_t> &Slot = Gauges[unsigned(G)];
    uint64_t Prev = Slot.load(std::memory_order_relaxed);
    while (V > Prev &&
           !Slot.compare_exchange_weak(Prev, V, std::memory_order_relaxed)) {
    }
  }

  /// Overwrites the gauge (non-monotone; the serve.latency.* quantile
  /// snapshots move both directions as the window slides).
  void setGauge(Gauge G, uint64_t V) {
    Gauges[unsigned(G)].store(V, std::memory_order_relaxed);
  }

  void observe(Hist H, uint64_t V) {
    HistData &D = Hists[unsigned(H)];
    D.Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
    D.Count.fetch_add(1, std::memory_order_relaxed);
    D.Sum.fetch_add(V, std::memory_order_relaxed);
  }

  uint64_t counterValue(Counter C) const {
    uint64_t Sum = 0;
    for (const Shard &S : Shards)
      Sum += S.Counts[unsigned(C)].load(std::memory_order_relaxed);
    return Sum;
  }

  uint64_t gaugeValue(Gauge G) const {
    return Gauges[unsigned(G)].load(std::memory_order_relaxed);
  }

  uint64_t histCount(Hist H) const {
    return Hists[unsigned(H)].Count.load(std::memory_order_relaxed);
  }
  uint64_t histSum(Hist H) const {
    return Hists[unsigned(H)].Sum.load(std::memory_order_relaxed);
  }
  uint64_t histBucket(Hist H, unsigned B) const {
    return Hists[unsigned(H)].Buckets[B].load(std::memory_order_relaxed);
  }

  /// Folds one run's SolverStats into the solver.* counters. Called by
  /// solve()/solveGoverned() on completion; the struct stays the per-run
  /// carrier, the registry the cross-run aggregate.
  void absorb(const SolverStats &S);

  /// Zeroes every counter, gauge and histogram (tests and per-run bench
  /// windows).
  void reset();

  /// One "name: value" line per counter/gauge plus histogram summaries —
  /// the human rendering (ptatool serve's `stats` command).
  std::string renderText() const;

  /// The stable machine-readable schema (see file header). \p Compact
  /// omits newlines/indentation for embedding into other JSON documents.
  std::string renderJson(bool Compact = false) const;

  static unsigned bucketOf(uint64_t V) {
    unsigned W = 0;
    while (V != 0) {
      ++W;
      V >>= 1;
    }
    return W; // bit_width; 0 for V == 0.
  }

private:
  MetricsRegistry() = default;

  static unsigned shardIndex() {
    thread_local unsigned Idx = NextShard.fetch_add(
                                    1, std::memory_order_relaxed) %
                                NumShards;
    return Idx;
  }

  struct alignas(64) Shard {
    std::atomic<uint64_t> Counts[unsigned(Counter::NumCounters)] = {};
  };
  struct HistData {
    std::array<std::atomic<uint64_t>, NumBuckets> Buckets = {};
    std::atomic<uint64_t> Count{0};
    std::atomic<uint64_t> Sum{0};
  };

  static inline std::atomic<unsigned> NextShard{0};
  std::array<Shard, NumShards> Shards;
  std::array<std::atomic<uint64_t>, unsigned(Gauge::NumGauges)> Gauges = {};
  std::array<HistData, unsigned(Hist::NumHists)> Hists;
};

/// Hot-path helpers: one relaxed load + branch when the channel is off.
inline void count(Counter C, uint64_t N = 1) {
  if (metricsEnabled())
    MetricsRegistry::instance().add(C, N);
}
inline void observe(Hist H, uint64_t V) {
  if (metricsEnabled())
    MetricsRegistry::instance().observe(H, V);
}

} // namespace obs
} // namespace ag

#endif // AG_OBS_METRICSREGISTRY_H
