//===- Obs.h - Observability master switches --------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's master switches. Every instrumentation point
/// in the solvers, the serve layer and the BDD engine is guarded by one of
/// the enabled() checks below; each check is an inline relaxed atomic load
/// plus a branch, and compiling with -DAG_OBS_DISABLED turns every check
/// into `constexpr false` so the optimizer removes the slow paths entirely.
/// That branch is the whole overhead contract (DESIGN.md §11): with the
/// bits clear, a solve must run within noise of a build that has no
/// observability layer at all — bench_paper records the ratio as a
/// guardrail.
///
/// Three independent channels:
///  * trace   — TraceRecorder: Chrome trace_event spans/instants/counters.
///  * metrics — MetricsRegistry: sharded counters + log-scale histograms.
///  * flight  — FlightRecorder: a small ring of recent coarse events the
///              governor dumps when a budget trips. On by default: its
///              events are per-phase, not per-operation, so the steady-
///              state cost is a handful of mutex acquisitions per solve.
///
//===----------------------------------------------------------------------===//

#ifndef AG_OBS_OBS_H
#define AG_OBS_OBS_H

#include <atomic>
#include <cstdint>

namespace ag {

class Status;

namespace obs {

#ifdef AG_OBS_DISABLED
/// Compile-time kill switch: every enabled() check folds to false and the
/// instrumentation bodies become dead code.
inline constexpr bool CompiledIn = false;
#else
inline constexpr bool CompiledIn = true;
#endif

enum : uint32_t {
  TraceBit = 1u << 0,
  MetricsBit = 1u << 1,
  FlightBit = 1u << 2,
};

/// Process-wide channel bits. Flight recording defaults on (coarse events
/// only); trace and metrics default off.
inline std::atomic<uint32_t> ChannelBits{FlightBit};

/// True when span/instant/counter events should be recorded.
inline bool traceEnabled() {
  return CompiledIn &&
         (ChannelBits.load(std::memory_order_relaxed) & TraceBit) != 0;
}

/// True when registry counters and histograms should be updated.
inline bool metricsEnabled() {
  return CompiledIn &&
         (ChannelBits.load(std::memory_order_relaxed) & MetricsBit) != 0;
}

/// True when coarse events should be appended to the flight ring.
inline bool flightEnabled() {
  return CompiledIn &&
         (ChannelBits.load(std::memory_order_relaxed) & FlightBit) != 0;
}

inline void setChannel(uint32_t Bit, bool On) {
  if (On)
    ChannelBits.fetch_or(Bit, std::memory_order_relaxed);
  else
    ChannelBits.fetch_and(~Bit, std::memory_order_relaxed);
}

inline void setTraceEnabled(bool On) { setChannel(TraceBit, On); }
inline void setMetricsEnabled(bool On) { setChannel(MetricsBit, On); }
inline void setFlightEnabled(bool On) { setChannel(FlightBit, On); }

/// Governor hook (called from SolveGovernor::trip before the throw):
/// counts the trip, records an instant event and a flight event, and —
/// when FlightRecorder::setDumpOnTrip(true) was requested — dumps the
/// flight ring to stderr so an unexpected production trip leaves a
/// breadcrumb trail. Defined in Obs.cpp to keep this header dependency-
/// free for the hot paths.
void onGovernorTrip(const Status &St);

/// Publishes MemTracker's current high-water marks into the
/// MetricsRegistry gauges and (when tracing) emits matching counter
/// events. Called at phase boundaries so the trace's memory track and the
/// final metrics JSON agree — previously peak bytes were only readable at
/// process end.
void publishMemPeaks();

} // namespace obs
} // namespace ag

#endif // AG_OBS_OBS_H
