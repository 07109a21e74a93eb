//===- SparseBitVector.h - GCC-style sparse bitmap --------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sparse bit vector modeled on the sparse bitmap implementation the paper
/// takes from GCC 4.1.1: a sorted singly-linked list of 128-bit elements with
/// a cached cursor for amortized-constant sequential access. This is the
/// representation used for both points-to sets and constraint-graph edge
/// sets in all non-BDD solvers.
///
//===----------------------------------------------------------------------===//

#ifndef AG_ADT_SPARSEBITVECTOR_H
#define AG_ADT_SPARSEBITVECTOR_H

#include "adt/ElementArena.h"
#include "adt/MemTracker.h"

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>

namespace ag {

/// Sorted-list-of-elements sparse bit set over uint32_t indices.
///
/// Elements cover 128 bits each (two 64-bit words), mirroring GCC's
/// BITMAP_ELEMENT_ALL_BITS on 64-bit hosts. All bulk operations (union,
/// intersection, difference, comparison) are linear merges over the two
/// element lists.
class SparseBitVector {
  static constexpr uint32_t WordBits = 64;
  static constexpr uint32_t WordsPerElement = 2;
  static constexpr uint32_t BitsPerElement = WordBits * WordsPerElement;

  struct Element {
    Element *Next;
    uint32_t Index; ///< Bit range covered: [Index*128, Index*128+128).
    uint64_t Words[WordsPerElement];

    bool empty() const { return Words[0] == 0 && Words[1] == 0; }

    bool test(uint32_t BitInElement) const {
      return (Words[BitInElement / WordBits] >>
              (BitInElement % WordBits)) &
             1;
    }

    void set(uint32_t BitInElement) {
      Words[BitInElement / WordBits] |= uint64_t(1)
                                        << (BitInElement % WordBits);
    }

    void reset(uint32_t BitInElement) {
      Words[BitInElement / WordBits] &=
          ~(uint64_t(1) << (BitInElement % WordBits));
    }

    unsigned count() const {
      return std::popcount(Words[0]) + std::popcount(Words[1]);
    }
  };

public:
  SparseBitVector() = default;

  SparseBitVector(const SparseBitVector &RHS) { copyFrom(RHS); }

  SparseBitVector(SparseBitVector &&RHS) noexcept
      : Arena(RHS.Arena), Head(RHS.Head), Curr(RHS.Curr),
        NumElements(RHS.NumElements) {
    RHS.Head = RHS.Curr = nullptr;
    RHS.NumElements = 0;
  }

  SparseBitVector &operator=(const SparseBitVector &RHS) {
    if (this != &RHS) {
      clear();
      copyFrom(RHS);
    }
    return *this;
  }

  SparseBitVector &operator=(SparseBitVector &&RHS) noexcept {
    if (this != &RHS) {
      clear();
      if (Arena == RHS.Arena) {
        Head = RHS.Head;
        Curr = RHS.Curr;
        NumElements = RHS.NumElements;
        RHS.Head = RHS.Curr = nullptr;
        RHS.NumElements = 0;
      } else {
        // Elements must stay in the arena that allocated them, so a
        // cross-arena move degrades to copy + clear.
        copyFrom(RHS);
        RHS.clear();
      }
    }
    return *this;
  }

  ~SparseBitVector() { clear(); }

  /// Binds this vector to \p A: every element it allocates or frees from
  /// now on goes through that arena. Must be called before any bit is
  /// set; the binding is fixed for the vector's lifetime (moves between
  /// same-arena vectors transfer elements, cross-arena moves copy).
  void setArena(ElementArena *A) {
    assert(!Head && "arena binding must precede allocation");
    assert(!A || A->blockBytes() >= sizeof(Element));
    Arena = A;
  }

  /// The arena this vector allocates from (nullptr = global heap).
  ElementArena *arena() const { return Arena; }

  /// Bytes per list element — the block size arenas must serve.
  static constexpr size_t elementBytes() { return sizeof(Element); }

  /// Removes all bits.
  void clear();

  /// Returns true if no bit is set.
  bool empty() const { return Head == nullptr; }

  /// Returns the number of set bits.
  size_t count() const;

  /// Returns true if bit \p Idx is set.
  bool test(uint32_t Idx) const;

  /// Sets bit \p Idx. \returns true if the bit was newly set.
  bool set(uint32_t Idx);

  /// Clears bit \p Idx. \returns true if the bit was previously set.
  bool reset(uint32_t Idx);

  /// Sets this to the union with \p RHS. \returns true if this changed.
  bool unionWith(const SparseBitVector &RHS);

  /// Fused `this |= RHS` that ORs every newly set bit into \p Delta in
  /// the same merge pass — the producer side of difference propagation:
  /// \p Delta accumulates exactly the bits that arrived in this set
  /// since it was last drained. Word-level only (no per-bit visiting);
  /// \p Delta insertions ride a forward cursor, so a single call costs
  /// O(|RHS| + |Delta|) element steps. \p Delta must be a distinct
  /// vector from both operands. \returns true if this changed.
  bool unionWithDelta(const SparseBitVector &RHS, SparseBitVector &Delta);

  /// Fused `this |= RHS` that invokes \p Fn once for every bit that was
  /// in RHS but not previously in this, in increasing order, during the
  /// same merge pass (difference propagation's forEachDiff + absorb in
  /// one walk). \p Fn must not mutate this vector or \p RHS.
  /// \returns true if this changed.
  template <typename F>
  bool unionWithVisitNew(const SparseBitVector &RHS, F Fn) {
    if (this == &RHS || !RHS.Head)
      return false;
    bool Changed = false;
    Element *Prev = nullptr;
    Element *L = Head;
    const Element *R = RHS.Head;
    while (R) {
      if (L && L->Index == R->Index) {
        uint64_t New0 = R->Words[0] & ~L->Words[0];
        uint64_t New1 = R->Words[1] & ~L->Words[1];
        L->Words[0] |= R->Words[0];
        L->Words[1] |= R->Words[1];
        Changed |= (New0 | New1) != 0;
        visitWords(L->Index, New0, New1, Fn);
        Prev = L;
        L = L->Next;
        R = R->Next;
      } else if (!L || L->Index > R->Index) {
        Element *New = allocateElement(R->Index, L);
        New->Words[0] = R->Words[0];
        New->Words[1] = R->Words[1];
        if (Prev)
          Prev->Next = New;
        else
          Head = New;
        Prev = New;
        Changed = true;
        visitWords(New->Index, New->Words[0], New->Words[1], Fn);
        R = R->Next;
      } else { // L->Index < R->Index
        Prev = L;
        L = L->Next;
      }
    }
    Curr = Head;
    return Changed;
  }

  /// Sets this to the intersection with \p RHS. \returns true if changed.
  bool intersectWith(const SparseBitVector &RHS);

  /// Removes every bit set in \p RHS. \returns true if this changed.
  bool subtract(const SparseBitVector &RHS);

  /// Computes `this |= RHS - Excluded` in one pass.
  /// \returns true if this changed.
  bool unionWithMinus(const SparseBitVector &RHS,
                      const SparseBitVector &Excluded);

  /// Returns true if this and \p RHS share any set bit.
  bool intersects(const SparseBitVector &RHS) const;

  /// Returns true if every bit of \p RHS is set in this.
  bool contains(const SparseBitVector &RHS) const;

  bool operator==(const SparseBitVector &RHS) const;
  bool operator!=(const SparseBitVector &RHS) const {
    return !(*this == RHS);
  }

  /// Returns the lowest set bit. Requires !empty().
  uint32_t findFirst() const;

  /// FNV-1a over the element (Index, Words) stream — the interning key
  /// for hash-consed shared points-to sets. Content-determined: equal
  /// sets hash equal regardless of allocation history or arena.
  uint64_t contentHash() const;

  /// Invokes \p Fn with every bit set in this but not in \p Exclude, in
  /// increasing order. A dual-cursor merge walk over the two element
  /// lists: no temporary vector is materialized (difference propagation
  /// runs this on every complex-constraint resolution step).
  template <typename F>
  void forEachDiff(const SparseBitVector &Exclude, F Fn) const {
    const Element *X = Exclude.Head;
    for (const Element *E = Head; E; E = E->Next) {
      while (X && X->Index < E->Index)
        X = X->Next;
      uint64_t W0 = E->Words[0];
      uint64_t W1 = E->Words[1];
      if (X && X->Index == E->Index) {
        W0 &= ~X->Words[0];
        W1 &= ~X->Words[1];
      }
      uint32_t Base = E->Index * BitsPerElement;
      while (W0) {
        Fn(Base + static_cast<uint32_t>(std::countr_zero(W0)));
        W0 &= W0 - 1;
      }
      while (W1) {
        Fn(Base + WordBits + static_cast<uint32_t>(std::countr_zero(W1)));
        W1 &= W1 - 1;
      }
    }
  }

  /// Heap bytes owned by this vector (for the memory tables).
  size_t memoryBytes() const { return NumElements * sizeof(Element); }

  /// Forward iterator over set bit indices in increasing order.
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t *;
    using reference = uint32_t;

    iterator() = default;

    explicit iterator(const Element *E) : Elem(E) {
      if (Elem) {
        Bits = Elem->Words[0];
        advanceToBit();
      }
    }

    uint32_t operator*() const {
      assert(Elem && "dereferencing end iterator");
      return Elem->Index * BitsPerElement + WordIdx * WordBits +
             static_cast<uint32_t>(std::countr_zero(Bits));
    }

    iterator &operator++() {
      Bits &= Bits - 1; // Clear lowest set bit.
      advanceToBit();
      return *this;
    }

    iterator operator++(int) {
      iterator Tmp = *this;
      ++*this;
      return Tmp;
    }

    bool operator==(const iterator &RHS) const {
      return Elem == RHS.Elem && WordIdx == RHS.WordIdx &&
             Bits == RHS.Bits;
    }
    bool operator!=(const iterator &RHS) const { return !(*this == RHS); }

  private:
    /// Skips empty words/elements until Bits holds the next set bit.
    void advanceToBit() {
      while (Elem && Bits == 0) {
        if (++WordIdx >= WordsPerElement) {
          Elem = Elem->Next;
          WordIdx = 0;
          if (!Elem)
            break;
        }
        Bits = Elem->Words[WordIdx];
      }
      if (!Elem) {
        WordIdx = 0;
        Bits = 0;
      }
    }

    const Element *Elem = nullptr;
    uint32_t WordIdx = 0;
    uint64_t Bits = 0;
  };

  iterator begin() const { return iterator(Head); }
  iterator end() const { return iterator(); }

private:
  void copyFrom(const SparseBitVector &RHS);

  /// Emits Fn(bit) for every set bit of the (W0, W1) pair at \p Index.
  template <typename F>
  static void visitWords(uint32_t Index, uint64_t W0, uint64_t W1, F &Fn) {
    uint32_t Base = Index * BitsPerElement;
    while (W0) {
      Fn(Base + static_cast<uint32_t>(std::countr_zero(W0)));
      W0 &= W0 - 1;
    }
    while (W1) {
      Fn(Base + WordBits + static_cast<uint32_t>(std::countr_zero(W1)));
      W1 &= W1 - 1;
    }
  }

  // Element is trivially constructible/destructible, so arena blocks and
  // raw operator-new storage need no placement lifetime management.
  // MemTracker keeps charging per element (MemCategory::Bitmap) so the
  // memory governor and mem.peak_bitmap_bytes keep their exact meaning;
  // slab reservations are tracked separately by ArenaStats.
  Element *allocateElement(uint32_t Index, Element *Next) {
    // Charge the tracker only once the raw allocation has succeeded: a
    // throwing allocation must not leave bytes charged that no element
    // destructor will ever release (the governor would see phantom
    // memory for the rest of the process).
    Element *E = static_cast<Element *>(
        Arena ? Arena->allocate() : ::operator new(sizeof(Element)));
    memAllocate(MemCategory::Bitmap, sizeof(Element));
    E->Next = Next;
    E->Index = Index;
    E->Words[0] = E->Words[1] = 0;
    ++NumElements;
    return E;
  }

  void freeElement(Element *E) {
    memRelease(MemCategory::Bitmap, sizeof(Element));
    if (Arena)
      Arena->deallocate(E);
    else
      ::operator delete(E);
    --NumElements;
  }

  /// Finds the element with the given index, or the last element with a
  /// smaller index (nullptr if none). Uses and updates the cursor cache.
  Element *findLowerBound(uint32_t ElementIndex) const;

  /// Allocation source for elements; nullptr = global heap. Fixed for
  /// the vector's lifetime once bound (see setArena).
  ElementArena *Arena = nullptr;
  Element *Head = nullptr;
  /// Cursor cache: last element visited by point queries, used to start
  /// searches near the previous access instead of at Head.
  mutable Element *Curr = nullptr;
  size_t NumElements = 0;
};

} // namespace ag

#endif // AG_ADT_SPARSEBITVECTOR_H
