//===- InternTable.h - Hash-consed shared points-to sets --------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonicalizes points-to sets so that content-equal sets share one
/// physical SparseBitVector. After cycle collapses, whole families of
/// representatives end up with identical solutions; storing one copy
/// behind shared handles cuts extracted-solution memory and lets the
/// serve layer key caches and snapshot encodings by canonical identity.
///
/// The interner hashes with FNV-1a over the element (Index, Words)
/// stream (SparseBitVector::contentHash) and verifies candidates with
/// full equality, so hash collisions only cost a compare. Interned sets
/// are immutable by convention: mutation goes through PointsToSolution's
/// copy-on-write handle, which detaches (clones) any set whose handle is
/// shared (DESIGN.md §13).
///
//===----------------------------------------------------------------------===//

#ifndef AG_ADT_INTERNTABLE_H
#define AG_ADT_INTERNTABLE_H

#include "adt/SparseBitVector.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ag {

/// Process-wide interning tallies, surfaced by `ptatool solve --stats`
/// and the bench harness's "memory" section. The per-run values also
/// feed the solver.interned_hits / solver.interned_misses counters.
class InternStats {
public:
  static InternStats &instance() {
    static InternStats S;
    return S;
  }

  void record(uint64_t NewHits, uint64_t NewMisses, uint64_t NewBytes) {
    Hits.fetch_add(NewHits, std::memory_order_relaxed);
    Misses.fetch_add(NewMisses, std::memory_order_relaxed);
    DedupedBytes.fetch_add(NewBytes, std::memory_order_relaxed);
  }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t dedupedBytes() const {
    return DedupedBytes.load(std::memory_order_relaxed);
  }

  void reset() {
    Hits.store(0, std::memory_order_relaxed);
    Misses.store(0, std::memory_order_relaxed);
    DedupedBytes.store(0, std::memory_order_relaxed);
  }

private:
  InternStats() = default;

  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> DedupedBytes{0};
};

/// Hash-conses SparseBitVectors: equal contents yield the same
/// shared_ptr. One interner serves one extraction/dedup pass; it is not
/// thread-safe (each extraction owns its interner on one thread).
class SetInterner {
public:
  /// Interns \p S. On a miss, S is moved into a fresh canonical set and
  /// the handle returned; on a hit, S is cleared (its storage released)
  /// and the existing canonical handle returned. Either way S is empty
  /// afterwards, so callers can reuse one scratch vector — keeping the
  /// transient footprint of a hit to a single set instead of letting
  /// duplicates accumulate until a post-hoc dedup pass.
  std::shared_ptr<SparseBitVector> intern(SparseBitVector &&S) {
    // Canonical sets outlive the solve that produced them, so they must
    // not carry elements owned by a solver arena (the move constructor
    // transfers the arena binding along with the elements).
    assert(S.arena() == nullptr && "interned sets must be heap-backed");
    uint64_t H = S.contentHash();
    auto &Bucket = Buckets[H];
    for (const auto &Canon : Bucket)
      if (*Canon == S) {
        ++HitCount;
        DedupedByteCount += S.memoryBytes();
        S.clear();
        return Canon;
      }
    ++MissCount;
    auto Canon = std::make_shared<SparseBitVector>(std::move(S));
    Bucket.push_back(Canon);
    return Canon;
  }

  /// Interns an existing shared handle without copying on a miss.
  std::shared_ptr<SparseBitVector>
  internShared(const std::shared_ptr<SparseBitVector> &S) {
    uint64_t H = S->contentHash();
    auto &Bucket = Buckets[H];
    for (const auto &Canon : Bucket)
      if (Canon == S || *Canon == *S) {
        if (Canon != S) {
          ++HitCount;
          DedupedByteCount += S->memoryBytes();
        }
        return Canon;
      }
    ++MissCount;
    Bucket.push_back(S);
    return S;
  }

  uint64_t hits() const { return HitCount; }
  uint64_t misses() const { return MissCount; }
  uint64_t dedupedBytes() const { return DedupedByteCount; }

  /// Flushes this interner's tallies into the process-wide totals.
  void publish() const {
    InternStats::instance().record(HitCount, MissCount, DedupedByteCount);
  }

private:
  std::unordered_map<uint64_t, std::vector<std::shared_ptr<SparseBitVector>>>
      Buckets;
  uint64_t HitCount = 0;
  uint64_t MissCount = 0;
  uint64_t DedupedByteCount = 0;
};

} // namespace ag

#endif // AG_ADT_INTERNTABLE_H
