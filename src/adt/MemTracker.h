//===- MemTracker.h - Byte-level memory accounting --------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global byte counters used to reproduce the paper's memory-consumption
/// tables (Tables 4 and 6). Each data structure that dominates memory usage
/// (sparse bitmaps, BDD node tables, graph edge storage) reports allocations
/// against one of a small number of categories. Counters are plain atomics,
/// so there are no static constructors.
///
//===----------------------------------------------------------------------===//

#ifndef AG_ADT_MEMTRACKER_H
#define AG_ADT_MEMTRACKER_H

#include "adt/FaultInjector.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ag {

/// Categories of tracked allocations.
enum class MemCategory : unsigned {
  Bitmap,   ///< SparseBitVector elements (points-to sets and graph edges).
  BddTable, ///< BDD node table and operation caches.
  Other,    ///< Everything else explicitly tracked.
};

constexpr unsigned NumMemCategories = 3;

/// Tracks current and peak bytes per category.
///
/// The tracker is a process-wide singleton; analyses call \c reset() before
/// a run and read \c peakBytes() afterwards to report peak consumption the
/// way the paper reports megabytes per benchmark.
class MemTracker {
public:
  /// Returns the process-wide tracker.
  static MemTracker &instance() {
    static MemTracker Tracker;
    return Tracker;
  }

  /// Records an allocation of \p Bytes in category \p Cat.
  void allocate(MemCategory Cat, size_t Bytes) {
    unsigned I = static_cast<unsigned>(Cat);
    uint64_t Now = Current[I].fetch_add(Bytes, std::memory_order_relaxed) +
                   Bytes;
    // CAS max, not a plain store: Server workers allocate concurrently
    // with a re-solve, and a lost update would under-report the peak.
    uint64_t Prev = Peak[I].load(std::memory_order_relaxed);
    while (Now > Prev &&
           !Peak[I].compare_exchange_weak(Prev, Now,
                                          std::memory_order_relaxed)) {
    }
    // Joint accounting: the true high-water mark across categories, which
    // the solver governor's memory cap checks against.
    uint64_t NowTotal =
        CurrentTotal.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
    uint64_t PrevTotal = PeakJoint.load(std::memory_order_relaxed);
    while (NowTotal > PrevTotal &&
           !PeakJoint.compare_exchange_weak(PrevTotal, NowTotal,
                                            std::memory_order_relaxed)) {
    }
  }

  /// Records a deallocation of \p Bytes in category \p Cat.
  void release(MemCategory Cat, size_t Bytes) {
    Current[static_cast<unsigned>(Cat)].fetch_sub(Bytes,
                                                  std::memory_order_relaxed);
    CurrentTotal.fetch_sub(Bytes, std::memory_order_relaxed);
  }

  /// Returns live bytes in category \p Cat.
  uint64_t currentBytes(MemCategory Cat) const {
    return Current[static_cast<unsigned>(Cat)].load(
        std::memory_order_relaxed);
  }

  /// Returns peak bytes in category \p Cat since the last reset.
  uint64_t peakBytes(MemCategory Cat) const {
    return Peak[static_cast<unsigned>(Cat)].load(std::memory_order_relaxed);
  }

  /// Returns live bytes summed over all categories (O(1): maintained as
  /// its own counter).
  uint64_t currentBytesTotal() const {
    return CurrentTotal.load(std::memory_order_relaxed);
  }

  /// Returns peak bytes summed over all categories. Note this sums per-
  /// category peaks, a slight over-approximation of the true joint peak —
  /// use peakBytesJoint() when the real high-water mark matters (budget
  /// enforcement).
  uint64_t peakBytesTotal() const {
    uint64_t Sum = 0;
    for (unsigned I = 0; I != NumMemCategories; ++I)
      Sum += Peak[I].load(std::memory_order_relaxed);
    return Sum;
  }

  /// Returns the true joint high-water mark since the last reset: the peak
  /// of the instantaneous sum over categories, not the sum of per-category
  /// peaks. Per-category peaks reached at different times do not inflate
  /// this value.
  uint64_t peakBytesJoint() const {
    return PeakJoint.load(std::memory_order_relaxed);
  }

  /// Resets peak counters to the current live values. Live counters are not
  /// touched: allocations outlive resets.
  void resetPeaks() {
    for (unsigned I = 0; I != NumMemCategories; ++I)
      Peak[I].store(Current[I].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    PeakJoint.store(CurrentTotal.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }

private:
  MemTracker() = default;

  std::atomic<uint64_t> Current[NumMemCategories] = {};
  std::atomic<uint64_t> Peak[NumMemCategories] = {};
  std::atomic<uint64_t> CurrentTotal{0};
  std::atomic<uint64_t> PeakJoint{0};
};

/// Convenience wrappers so call sites stay short. Allocation is also a
/// fault-injection pressure point: an armed Allocation fault latches here
/// and surfaces at the governor's next budget check.
inline void memAllocate(MemCategory Cat, size_t Bytes) {
  MemTracker::instance().allocate(Cat, Bytes);
  FaultInjector::instance().hitAllocation();
}
inline void memRelease(MemCategory Cat, size_t Bytes) {
  MemTracker::instance().release(Cat, Bytes);
}

} // namespace ag

#endif // AG_ADT_MEMTRACKER_H
