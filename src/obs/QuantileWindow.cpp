//===- QuantileWindow.cpp - Sliding-window latency quantiles --------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "obs/QuantileWindow.h"

#include "obs/MetricsRegistry.h"

#include <cmath>
#include <thread>

using namespace ag;
using namespace ag::obs;

QuantileWindow::QuantileWindow(uint64_t SlotNanos)
    : SlotNs(SlotNanos ? SlotNanos : 1), Slots(new Slot[NumSlots]) {}

void QuantileWindow::record(uint64_t V) {
  uint64_t Epoch = nowNanos() / SlotNs;
  Slot &S = Slots[Epoch % NumSlots];
  for (uint64_t Tag = S.Epoch.load(std::memory_order_acquire); Tag != Epoch;
       Tag = S.Epoch.load(std::memory_order_acquire)) {
    if (Tag == Clearing) {
      // Another recorder is zeroing the slot for some epoch; anything
      // written now would be wiped.
      std::this_thread::yield();
      continue;
    }
    // A straggler whose epoch has already been rotated past records into
    // the newer epoch (the bounded bleed described in the header).
    if (Tag != Unused && Tag > Epoch)
      break;
    // Claim the slot, zero it, then publish the epoch: no recorder can
    // write into it before the clear finishes.
    if (S.Epoch.compare_exchange_strong(Tag, Clearing,
                                        std::memory_order_acquire)) {
      for (auto &B : S.Buckets)
        B.store(0, std::memory_order_relaxed);
      S.Count.store(0, std::memory_order_relaxed);
      S.Epoch.store(Epoch, std::memory_order_release);
      break;
    }
  }
  S.Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
  S.Count.fetch_add(1, std::memory_order_relaxed);
}

uint64_t QuantileWindow::quantile(double Q) const {
  uint64_t CurEpoch = nowNanos() / SlotNs;
  uint64_t MinEpoch =
      CurEpoch >= NumSlots - 1 ? CurEpoch - (NumSlots - 1) : 0;
  uint64_t Merged[NumBuckets] = {};
  uint64_t Total = 0;
  for (unsigned I = 0; I != NumSlots; ++I) {
    const Slot &S = Slots[I];
    uint64_t E = S.Epoch.load(std::memory_order_acquire);
    if (E == Unused || E == Clearing || E < MinEpoch || E > CurEpoch)
      continue;
    for (unsigned B = 0; B != NumBuckets; ++B) {
      uint64_t N = S.Buckets[B].load(std::memory_order_relaxed);
      Merged[B] += N;
      Total += N;
    }
  }
  if (!Total)
    return 0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  uint64_t Rank = uint64_t(std::ceil(Q * double(Total)));
  if (Rank == 0)
    Rank = 1;
  if (Rank > Total)
    Rank = Total;
  uint64_t Acc = 0;
  for (unsigned B = 0; B != NumBuckets; ++B) {
    Acc += Merged[B];
    if (Acc >= Rank)
      return bucketUpper(B);
  }
  return bucketUpper(NumBuckets - 1);
}

uint64_t QuantileWindow::count() const {
  uint64_t CurEpoch = nowNanos() / SlotNs;
  uint64_t MinEpoch =
      CurEpoch >= NumSlots - 1 ? CurEpoch - (NumSlots - 1) : 0;
  uint64_t Total = 0;
  for (unsigned I = 0; I != NumSlots; ++I) {
    const Slot &S = Slots[I];
    uint64_t E = S.Epoch.load(std::memory_order_acquire);
    if (E == Unused || E == Clearing || E < MinEpoch || E > CurEpoch)
      continue;
    Total += S.Count.load(std::memory_order_relaxed);
  }
  return Total;
}

void QuantileWindow::reset() {
  for (unsigned I = 0; I != NumSlots; ++I) {
    Slot &S = Slots[I];
    S.Epoch.store(Unused, std::memory_order_relaxed);
    for (auto &B : S.Buckets)
      B.store(0, std::memory_order_relaxed);
    S.Count.store(0, std::memory_order_relaxed);
  }
}

LatencyTracker &LatencyTracker::instance() {
  static LatencyTracker T;
  return T;
}

LatencyTracker::LatencyTracker() = default;

void LatencyTracker::record(CommandClass C, uint64_t Micros) {
  Windows[unsigned(C)].record(Micros);
}

uint64_t LatencyTracker::quantileMicros(CommandClass C, double Q) const {
  return Windows[unsigned(C)].quantile(Q);
}

uint64_t LatencyTracker::count(CommandClass C) const {
  return Windows[unsigned(C)].count();
}

void LatencyTracker::publishGauges() {
  // Gauge enum layout is class-major, quantile-minor — see Gauge in
  // MetricsRegistry.h. setGauge (not maxGauge): quantiles move both ways.
  static constexpr double Quantiles[] = {0.50, 0.90, 0.99};
  MetricsRegistry &R = MetricsRegistry::instance();
  unsigned Base = unsigned(Gauge::ServeLatencyP50Query);
  for (unsigned C = 0; C != unsigned(CommandClass::NumClasses); ++C)
    for (unsigned Qi = 0; Qi != 3; ++Qi)
      R.setGauge(static_cast<Gauge>(Base + C * 3 + Qi),
                 Windows[C].quantile(Quantiles[Qi]));
}

void LatencyTracker::reset() {
  for (auto &W : Windows)
    W.reset();
  MetricsRegistry &R = MetricsRegistry::instance();
  unsigned Base = unsigned(Gauge::ServeLatencyP50Query);
  for (unsigned I = 0; I != 9; ++I)
    R.setGauge(static_cast<Gauge>(Base + I), 0);
}
