//===- QuantileWindow.h - Sliding-window latency quantiles ------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live latency quantiles for the serve path. A QuantileWindow is a
/// sliding window of fixed-size log-linear histograms (HdrHistogram-style:
/// values below 2^SubBits are exact, above that each power-of-two octave
/// is split into 2^SubBits sub-buckets, so a reported quantile over-
/// estimates the true value by at most 2^-SubBits = 12.5% relative error
/// with SubBits = 3). Recording is two relaxed atomic increments plus a
/// bucket computation — no allocation, TSan-clean — and the
/// window slides by rotating through NumSlots time slots, each covering
/// SlotNanos; readers merge the slots that still fall inside the window.
///
/// Slot rotation: the first recorder to enter a new epoch CASes the slot's
/// epoch tag to a Clearing sentinel, zeroes the slot, then release-stores
/// the new epoch. Recorders that see the sentinel wait for that store
/// (once per slot per rotation, a few hundred stores long), and readers
/// skip the slot, so no sample recorded into the new epoch is wiped. A
/// straggler that was still writing into the old epoch can leak a handful
/// of samples into the fresh slot; that statistical bleed is bounded by
/// the number of concurrently recording threads and is irrelevant at
/// quantile granularity.
///
/// LatencyTracker aggregates one window per CommandClass and publishes
/// serve.latency.{p50,p90,p99}.{query,mutate,admin} gauges on demand (the
/// `stats` command, the OpenMetrics endpoint, session teardown) — never on
/// the per-request hot path.
///
//===----------------------------------------------------------------------===//

#ifndef AG_OBS_QUANTILEWINDOW_H
#define AG_OBS_QUANTILEWINDOW_H

#include "obs/RequestContext.h"

#include <atomic>
#include <cstdint>
#include <memory>

namespace ag {
namespace obs {

/// Sliding window of log-linear histograms. All methods are thread-safe.
class QuantileWindow {
public:
  static constexpr unsigned SubBits = 3;
  static constexpr unsigned NumBuckets =
      ((64 - SubBits) << SubBits) + (1u << SubBits); // 496
  static constexpr unsigned NumSlots = 8;

  /// \p SlotNanos is the width of one rotation slot; the window covers the
  /// last NumSlots * SlotNanos of wall time (default ~16 s).
  explicit QuantileWindow(uint64_t SlotNanos = 2000000000ull);

  /// Records one sample at the current time. Allocation-free; waits only
  /// while another recorder clears the slot for a new epoch.
  void record(uint64_t V);

  /// The \p Q quantile (0 < Q <= 1) over the live window, as the upper
  /// bound of the selected bucket (<= 12.5% above the true value), or 0
  /// when the window is empty.
  uint64_t quantile(double Q) const;

  /// Samples currently inside the window.
  uint64_t count() const;

  /// Forgets all samples (tests).
  void reset();

  /// Maps a value to its bucket index: exact below 2^SubBits, then
  /// (octave, sub-bucket).
  static unsigned bucketOf(uint64_t V) {
    if (V < (1ull << SubBits))
      return unsigned(V);
    unsigned Msb = 63u - unsigned(__builtin_clzll(V));
    unsigned Shift = Msb - SubBits;
    unsigned Low = unsigned((V >> Shift) & ((1u << SubBits) - 1));
    return ((Shift + 1) << SubBits) + Low;
  }

  /// Largest value mapping to bucket \p B (what quantile() reports).
  static uint64_t bucketUpper(unsigned B) {
    if (B < (1u << SubBits))
      return B;
    unsigned Shift = (B >> SubBits) - 1;
    uint64_t Low = B & ((1u << SubBits) - 1);
    return (((1ull << SubBits) + Low + 1) << Shift) - 1;
  }

private:
  /// Slot epoch tags that name no epoch: never used, and being zeroed by
  /// the recorder that claimed it.
  static constexpr uint64_t Unused = UINT64_MAX;
  static constexpr uint64_t Clearing = UINT64_MAX - 1;

  struct Slot {
    std::atomic<uint64_t> Epoch{Unused};
    std::atomic<uint32_t> Buckets[NumBuckets] = {};
    std::atomic<uint64_t> Count{0};
  };

  uint64_t SlotNs;
  std::unique_ptr<Slot[]> Slots;
};

/// Per-command-class latency windows plus gauge publication.
class LatencyTracker {
public:
  static LatencyTracker &instance();

  /// Records one request latency. Hot path: bucket increment only.
  void record(CommandClass C, uint64_t Micros);

  /// Computes p50/p90/p99 per class and stores them into the
  /// serve.latency.* gauges. Called at observation points only.
  void publishGauges();

  uint64_t quantileMicros(CommandClass C, double Q) const;
  uint64_t count(CommandClass C) const;

  /// Forgets all samples and zeroes the latency gauges (tests).
  void reset();

private:
  LatencyTracker();

  QuantileWindow Windows[unsigned(CommandClass::NumClasses)];
};

} // namespace obs
} // namespace ag

#endif // AG_OBS_QUANTILEWINDOW_H
