//===- ElementArena.h - Slab allocator for bitmap elements ------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-block slab allocator servicing SparseBitVector element
/// allocation. The paper's solvers spend nearly all of their memory
/// traffic on 32-byte bitmap elements; routing them through per-solve
/// arenas replaces one malloc/free pair per element with a pointer pop
/// off an intrusive free list, and keeps elements of one solve packed
/// into contiguous slabs (the linear merge kernels walk them in list
/// order, so locality matters).
///
/// Ownership model (DESIGN.md §13): a solver context owns its arena and
/// declares it *before* every set vector, so unwind destruction frees
/// all elements back into the live arena before the slabs go away. A
/// SparseBitVector binds to at most one arena for its whole lifetime;
/// every element it ever allocates or frees goes through that arena.
///
/// Thread safety: each arena is internally thread-safe behind a tiny
/// spinlock. Every solver uses its context from one thread at a time,
/// but nothing ties an arena to a thread: a context may be built on one
/// thread and solved or destroyed on another (serve re-solves on Server
/// worker threads), and a move-constructed SparseBitVector keeps its
/// source's binding, so an element can be freed by whichever thread
/// destroys the set it ended up in. The lock keeps the free list sound
/// in all of those cases for the price of one uncontended atomic pair.
///
//===----------------------------------------------------------------------===//

#ifndef AG_ADT_ELEMENTARENA_H
#define AG_ADT_ELEMENTARENA_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace ag {

/// Process-wide arena accounting, published into the mem.arena_* gauges
/// at phase boundaries. Updated once per slab (not per element), so the
/// hot allocation path touches no globals.
class ArenaStats {
public:
  static ArenaStats &instance() {
    static ArenaStats S;
    return S;
  }

  void onSlabAllocated(size_t Bytes) {
    bumpPeak(CurrentReserved, PeakReserved, Bytes);
    bumpPeak(CurrentSlabs, PeakSlabs, 1);
  }

  void onSlabsReleased(size_t Bytes, uint64_t Slabs) {
    CurrentReserved.fetch_sub(Bytes, std::memory_order_relaxed);
    CurrentSlabs.fetch_sub(Slabs, std::memory_order_relaxed);
  }

  uint64_t currentReservedBytes() const {
    return CurrentReserved.load(std::memory_order_relaxed);
  }
  uint64_t peakReservedBytes() const {
    return PeakReserved.load(std::memory_order_relaxed);
  }
  uint64_t peakSlabs() const {
    return PeakSlabs.load(std::memory_order_relaxed);
  }

  /// Resets peaks to the current live values (per-run bench windows).
  void resetPeaks() {
    PeakReserved.store(CurrentReserved.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    PeakSlabs.store(CurrentSlabs.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }

private:
  ArenaStats() = default;

  static void bumpPeak(std::atomic<uint64_t> &Cur, std::atomic<uint64_t> &Peak,
                       uint64_t Add) {
    uint64_t Now = Cur.fetch_add(Add, std::memory_order_relaxed) + Add;
    uint64_t Prev = Peak.load(std::memory_order_relaxed);
    while (Now > Prev &&
           !Peak.compare_exchange_weak(Prev, Now, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> CurrentReserved{0};
  std::atomic<uint64_t> PeakReserved{0};
  std::atomic<uint64_t> CurrentSlabs{0};
  std::atomic<uint64_t> PeakSlabs{0};
};

/// Chunked-slab fixed-block allocator with an intrusive free list.
/// Blocks are \c blockBytes() each; slab sizes grow geometrically so
/// small solves reserve little and large solves amortize slab overhead.
class ElementArena {
public:
  explicit ElementArena(size_t BlockBytes)
      : BlockBytes(BlockBytes < sizeof(void *) ? sizeof(void *) : BlockBytes) {
    assert(BlockBytes % alignof(std::max_align_t) == 0 &&
           "element blocks must preserve natural alignment");
  }

  ElementArena(const ElementArena &) = delete;
  ElementArena &operator=(const ElementArena &) = delete;

  ~ElementArena() {
    size_t Total = 0;
    for (const Slab &S : Slabs) {
      Total += S.Bytes;
      ::operator delete(S.Base);
    }
    if (!Slabs.empty())
      ArenaStats::instance().onSlabsReleased(Total, Slabs.size());
  }

  /// Pops a block off the free list, carving a fresh slab when dry.
  void *allocate() {
    Lock.lock();
    FreeBlock *B = FreeList;
    if (!B) {
      refill();
      B = FreeList;
    }
    FreeList = B->Next;
    ++LiveBlocks;
    Lock.unlock();
    return B;
  }

  /// Returns \p P (obtained from allocate()) to the free list.
  void deallocate(void *P) {
    Lock.lock();
    FreeBlock *B = static_cast<FreeBlock *>(P);
    B->Next = FreeList;
    FreeList = B;
    --LiveBlocks;
    Lock.unlock();
  }

  size_t blockBytes() const { return BlockBytes; }

  /// Total slab bytes currently reserved from the system.
  size_t reservedBytes() const {
    size_t Total = 0;
    for (const Slab &S : Slabs)
      Total += S.Bytes;
    return Total;
  }

  /// Blocks handed out and not yet returned.
  uint64_t liveBlocks() const { return LiveBlocks; }

private:
  /// Acquire/release spinlock; uncontended in practice (each solver
  /// context owns one arena and uses it from one thread at a time).
  struct SpinLock {
    std::atomic_flag Flag = ATOMIC_FLAG_INIT;
    void lock() {
      while (Flag.test_and_set(std::memory_order_acquire)) {
      }
    }
    void unlock() { Flag.clear(std::memory_order_release); }
  };

  struct FreeBlock {
    FreeBlock *Next;
  };

  struct Slab {
    void *Base;
    size_t Bytes;
  };

  /// Carves a new slab into free-list blocks (front of the list ends up
  /// at the slab's start, so a fresh slab is consumed front to back).
  void refill() {
    size_t Blocks = NextSlabBlocks;
    if (NextSlabBlocks < MaxSlabBlocks)
      NextSlabBlocks *= 2;
    size_t Bytes = Blocks * BlockBytes;
    char *Base = static_cast<char *>(::operator new(Bytes));
    Slabs.push_back(Slab{Base, Bytes});
    ArenaStats::instance().onSlabAllocated(Bytes);
    for (size_t I = Blocks; I != 0; --I) {
      FreeBlock *B = reinterpret_cast<FreeBlock *>(Base + (I - 1) * BlockBytes);
      B->Next = FreeList;
      FreeList = B;
    }
  }

  static constexpr size_t FirstSlabBlocks = 64;
  static constexpr size_t MaxSlabBlocks = 8192;

  const size_t BlockBytes;
  SpinLock Lock;
  FreeBlock *FreeList = nullptr;
  std::vector<Slab> Slabs;
  size_t NextSlabBlocks = FirstSlabBlocks;
  uint64_t LiveBlocks = 0;
};

} // namespace ag

#endif // AG_ADT_ELEMENTARENA_H
