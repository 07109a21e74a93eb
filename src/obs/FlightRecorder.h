//===- FlightRecorder.h - Recent-event ring buffer --------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small ring buffer of recent coarse events (phase starts, serve drops,
/// snapshot loads, governor trips) kept even when full tracing is off —
/// the black box a production service wants when a solve dies. The
/// governor dumps the ring to stderr on budget trips and fault-injection
/// aborts when dump-on-trip is armed (ptatool arms it whenever trace or
/// metrics output was requested), and `ptatool serve` exposes the ring
/// through its `trace` REPL command.
///
/// Event payloads are a static-string label plus two integers; recording
/// is a mutex-guarded ring write, cheap at the per-phase cadence the
/// instrumentation points use (never per-operation).
///
//===----------------------------------------------------------------------===//

#ifndef AG_OBS_FLIGHTRECORDER_H
#define AG_OBS_FLIGHTRECORDER_H

#include "obs/Obs.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace ag {
namespace obs {

/// Fixed-capacity ring of recent events.
class FlightRecorder {
public:
  static constexpr size_t Capacity = 1024;

  static FlightRecorder &instance();

  /// Appends one event. \p What must be a string literal.
  void record(const char *What, uint64_t A = 0, uint64_t B = 0);

  /// Renders the ring oldest-to-newest, one line per event:
  /// "  [seq] +sss.mmm s tid=T what a=A b=B".
  std::string dumpText() const;

  /// Events recorded since process start (not capped by Capacity).
  uint64_t totalRecorded() const;

  void clear();

  /// When armed, obs::onGovernorTrip dumps the ring to stderr.
  void setDumpOnTrip(bool On) {
    DumpOnTrip.store(On, std::memory_order_relaxed);
  }
  bool dumpOnTrip() const {
    return DumpOnTrip.load(std::memory_order_relaxed);
  }

private:
  FlightRecorder() = default;

  struct Event {
    uint64_t Seq = 0;
    uint64_t TsNanos = 0;
    const char *What = nullptr;
    uint64_t A = 0;
    uint64_t B = 0;
    uint32_t Tid = 0;
  };

  mutable std::mutex Mu;
  std::array<Event, Capacity> Ring;
  uint64_t NextSeq = 0;
  std::atomic<bool> DumpOnTrip{false};
};

/// Hot-path helper: records only when the flight channel is on.
inline void flight(const char *What, uint64_t A = 0, uint64_t B = 0) {
  if (flightEnabled())
    FlightRecorder::instance().record(What, A, B);
}

} // namespace obs
} // namespace ag

#endif // AG_OBS_FLIGHTRECORDER_H
