//===- TraceRecorder.h - Chrome trace_event recording -----------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability layer: an in-memory event log
/// rendered as Chrome trace_event JSON (loadable in chrome://tracing or
/// https://ui.perfetto.dev). Three event shapes:
///
///  * spans    — B/E duration pairs; must nest properly per track. Emitted
///               for offline passes (OVS, HCD), whole solves, Tarjan
///               searches, snapshot loads, warm re-solves, and
///               individual serve queries.
///  * instants — point events (LCD triggers, governor trips).
///  * counters — sampled values ("C" phase) such as worklist depth over
///               time and tracked memory per category.
///
/// Tracks: each OS thread gets a small stable integer track id on first
/// use (the main thread usually 0), so spans recorded by Server workers
/// render on their own lanes and still nest properly per track.
///
/// Names and categories must be string literals (the recorder stores the
/// pointers); every instrumentation point in this codebase complies, which
/// keeps recording allocation-free apart from the event vector itself.
///
//===----------------------------------------------------------------------===//

#ifndef AG_OBS_TRACERECORDER_H
#define AG_OBS_TRACERECORDER_H

#include "adt/Status.h"
#include "obs/Obs.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ag {
namespace obs {

/// The process's observability epoch: a steady-clock anchor for all
/// relative timestamps plus the wall-clock instant it was captured, taken
/// together on first use so `wall time = WallMillis + nanos/1e6` holds for
/// every obs timestamp. FlightRecorder dumps and wide-event lines both
/// derive absolute times from this one anchor, which is what makes them
/// time-correlatable.
struct ObsEpoch {
  std::chrono::steady_clock::time_point Steady;
  uint64_t WallMillis;

  static const ObsEpoch &instance() {
    static const ObsEpoch E = [] {
      ObsEpoch R;
      R.Steady = std::chrono::steady_clock::now();
      R.WallMillis = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      return R;
    }();
    return E;
  }
};

/// Nanoseconds since the process's observability epoch (first call).
inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - ObsEpoch::instance().Steady)
          .count());
}

/// Wall-clock epoch-milliseconds at the moment the observability epoch was
/// captured; add nowNanos()/1e6 to get an absolute wall timestamp.
inline uint64_t epochWallMillis() { return ObsEpoch::instance().WallMillis; }

/// Stable small integer identifying the calling thread's track.
inline uint32_t trackId() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Id = Next.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

/// One recorded trace event (16-byte strings by pointer; see file header).
struct TraceEvent {
  uint64_t TsNanos = 0;
  const char *Name = nullptr;
  const char *Cat = nullptr;
  const char *ArgKey = nullptr; ///< Optional single argument.
  uint64_t ArgVal = 0;
  uint32_t Tid = 0;
  char Phase = 'i'; ///< 'B', 'E', 'i', or 'C'.
};

/// Process-wide trace buffer. Mutators append under one mutex — every
/// instrumentation point is phase/round/query granularity, never
/// per-propagation, so contention is negligible; the disabled path never
/// reaches the recorder at all (see Obs.h).
class TraceRecorder {
public:
  static TraceRecorder &instance();

  void begin(const char *Name, const char *Cat) {
    append(Name, Cat, 'B', nullptr, 0);
  }
  void end(const char *Name, const char *Cat) {
    append(Name, Cat, 'E', nullptr, 0);
  }
  void instant(const char *Name, const char *Cat, const char *ArgKey = nullptr,
               uint64_t ArgVal = 0) {
    append(Name, Cat, 'i', ArgKey, ArgVal);
  }
  /// A counter sample: renders as a value-over-time track.
  void counter(const char *Name, uint64_t Value) {
    append(Name, "counter", 'C', "value", Value);
  }

  /// Events recorded so far (tests; racy but monotone).
  size_t eventCount() const;

  /// Snapshot of the buffer (tests).
  std::vector<TraceEvent> events() const;

  /// Drops all recorded events.
  void clear();

  /// Renders the Chrome trace_event JSON document.
  std::string renderJson() const;

  /// Writes renderJson() to \p Path.
  Status writeJson(const std::string &Path) const;

private:
  TraceRecorder() = default;

  void append(const char *Name, const char *Cat, char Phase,
              const char *ArgKey, uint64_t ArgVal);

  mutable std::mutex Mu;
  std::vector<TraceEvent> Events;
};

/// RAII span: begins on construction when tracing is enabled, and ends on
/// destruction if (and only if) it began — so B/E pairs stay balanced even
/// if tracing is toggled mid-span.
class TraceSpan {
public:
  TraceSpan(const char *Name, const char *Cat) : Name(Name), Cat(Cat) {
    if (traceEnabled()) {
      Began = true;
      TraceRecorder::instance().begin(Name, Cat);
    }
  }
  ~TraceSpan() {
    if (Began)
      TraceRecorder::instance().end(Name, Cat);
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  const char *Name;
  const char *Cat;
  bool Began = false;
};

/// A TraceSpan that marks a phase boundary: on destruction it additionally
/// publishes MemTracker high-water marks into the MetricsRegistry gauges
/// and the trace's memory counter tracks (see obs::publishMemPeaks).
class PhaseSpan {
public:
  PhaseSpan(const char *Name, const char *Cat) : Span(Name, Cat) {}
  ~PhaseSpan() { publishMemPeaks(); }

private:
  TraceSpan Span;
};

} // namespace obs
} // namespace ag

#endif // AG_OBS_TRACERECORDER_H
