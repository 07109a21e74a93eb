//===- SparseBitVector.cpp - GCC-style sparse bitmap ----------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "adt/SparseBitVector.h"

using namespace ag;

void SparseBitVector::clear() {
  Element *E = Head;
  while (E) {
    Element *Next = E->Next;
    freeElement(E);
    E = Next;
  }
  Head = Curr = nullptr;
  assert(NumElements == 0 && "element accounting out of sync");
}

void SparseBitVector::copyFrom(const SparseBitVector &RHS) {
  assert(!Head && "copyFrom requires an empty destination");
  Element *Prev = nullptr;
  for (Element *E = RHS.Head; E; E = E->Next) {
    Element *New = allocateElement(E->Index, nullptr);
    New->Words[0] = E->Words[0];
    New->Words[1] = E->Words[1];
    if (Prev)
      Prev->Next = New;
    else
      Head = New;
    Prev = New;
  }
  Curr = Head;
}

SparseBitVector::Element *
SparseBitVector::findLowerBound(uint32_t ElementIndex) const {
  // Start from the cursor if it doesn't overshoot, else from the head.
  Element *E = (Curr && Curr->Index <= ElementIndex) ? Curr : Head;
  if (!E || E->Index > ElementIndex)
    return nullptr;
  while (E->Next && E->Next->Index <= ElementIndex)
    E = E->Next;
  Curr = E;
  return E;
}

size_t SparseBitVector::count() const {
  size_t Total = 0;
  for (const Element *E = Head; E; E = E->Next)
    Total += E->count();
  return Total;
}

bool SparseBitVector::test(uint32_t Idx) const {
  Element *E = findLowerBound(Idx / BitsPerElement);
  if (!E || E->Index != Idx / BitsPerElement)
    return false;
  return E->test(Idx % BitsPerElement);
}

bool SparseBitVector::set(uint32_t Idx) {
  uint32_t ElementIndex = Idx / BitsPerElement;
  Element *E = findLowerBound(ElementIndex);
  if (E && E->Index == ElementIndex) {
    if (E->test(Idx % BitsPerElement))
      return false;
    E->set(Idx % BitsPerElement);
    return true;
  }
  // Insert a fresh element after E (or at the head).
  Element *New;
  if (E) {
    New = allocateElement(ElementIndex, E->Next);
    E->Next = New;
  } else {
    New = allocateElement(ElementIndex, Head);
    Head = New;
  }
  New->set(Idx % BitsPerElement);
  Curr = New;
  return true;
}

bool SparseBitVector::reset(uint32_t Idx) {
  uint32_t ElementIndex = Idx / BitsPerElement;
  Element *E = findLowerBound(ElementIndex);
  if (!E || E->Index != ElementIndex || !E->test(Idx % BitsPerElement))
    return false;
  E->reset(Idx % BitsPerElement);
  if (E->empty()) {
    // Unlink E; we only have a singly-linked list, so re-find the
    // predecessor from the head.
    if (Head == E) {
      Head = E->Next;
    } else {
      Element *Prev = Head;
      while (Prev->Next != E)
        Prev = Prev->Next;
      Prev->Next = E->Next;
    }
    Curr = Head;
    freeElement(E);
  }
  return true;
}

bool SparseBitVector::unionWith(const SparseBitVector &RHS) {
  if (this == &RHS || !RHS.Head)
    return false;
  if (!Head) { // Empty destination: bulk copy, no merge bookkeeping.
    copyFrom(RHS);
    return true;
  }
  bool Changed = false;
  Element *Prev = nullptr;
  Element *L = Head;
  const Element *R = RHS.Head;
  while (R) {
    if (L && L->Index == R->Index) {
      // Branch-light: compute the incoming-new words, OR both words
      // unconditionally, and fold change detection into one test. The
      // common difference-propagation probe (dst ⊇ src, nothing new)
      // takes no data-dependent branches inside the element.
      uint64_t New0 = R->Words[0] & ~L->Words[0];
      uint64_t New1 = R->Words[1] & ~L->Words[1];
      L->Words[0] |= R->Words[0];
      L->Words[1] |= R->Words[1];
      Changed |= (New0 | New1) != 0;
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
      R = R->Next;
      Changed = true;
    } else { // L->Index < R->Index
      Prev = L;
      L = L->Next;
    }
  }
  Curr = Head;
  return Changed;
}

bool SparseBitVector::intersectWith(const SparseBitVector &RHS) {
  bool Changed = false;
  Element *Prev = nullptr;
  Element *L = Head;
  const Element *R = RHS.Head;
  while (L) {
    if (R && L->Index == R->Index) {
      uint64_t Old0 = L->Words[0], Old1 = L->Words[1];
      L->Words[0] &= R->Words[0];
      L->Words[1] &= R->Words[1];
      Changed |= (L->Words[0] != Old0) | (L->Words[1] != Old1);
      if (L->empty()) {
        Element *Dead = L;
        L = L->Next;
        if (Prev)
          Prev->Next = L;
        else
          Head = L;
        freeElement(Dead);
      } else {
        Prev = L;
        L = L->Next;
      }
      R = R->Next;
    } else if (!R || L->Index < R->Index) {
      // L has no counterpart: drop it.
      Element *Dead = L;
      L = L->Next;
      if (Prev)
        Prev->Next = L;
      else
        Head = L;
      freeElement(Dead);
      Changed = true;
    } else { // R->Index < L->Index
      R = R->Next;
    }
  }
  Curr = Head;
  return Changed;
}

bool SparseBitVector::subtract(const SparseBitVector &RHS) {
  bool Changed = false;
  Element *Prev = nullptr;
  Element *L = Head;
  const Element *R = RHS.Head;
  while (L && R) {
    if (L->Index == R->Index) {
      uint64_t Old0 = L->Words[0], Old1 = L->Words[1];
      L->Words[0] &= ~R->Words[0];
      L->Words[1] &= ~R->Words[1];
      Changed |= (L->Words[0] != Old0) | (L->Words[1] != Old1);
      R = R->Next;
      if (L->empty()) {
        Element *Dead = L;
        L = L->Next;
        if (Prev)
          Prev->Next = L;
        else
          Head = L;
        freeElement(Dead);
      } else {
        Prev = L;
        L = L->Next;
      }
    } else if (L->Index < R->Index) {
      Prev = L;
      L = L->Next;
    } else {
      R = R->Next;
    }
  }
  Curr = Head;
  return Changed;
}

bool SparseBitVector::unionWithMinus(const SparseBitVector &RHS,
                                     const SparseBitVector &Excluded) {
  bool Changed = false;
  Element *Prev = nullptr;
  Element *L = Head;
  const Element *R = RHS.Head;
  const Element *X = Excluded.Head;
  while (R) {
    // Advance the exclusion cursor up to R's index.
    while (X && X->Index < R->Index)
      X = X->Next;
    uint64_t W0 = R->Words[0], W1 = R->Words[1];
    if (X && X->Index == R->Index) {
      W0 &= ~X->Words[0];
      W1 &= ~X->Words[1];
    }
    if (W0 == 0 && W1 == 0) {
      R = R->Next;
      continue;
    }
    while (L && L->Index < R->Index) {
      Prev = L;
      L = L->Next;
    }
    if (L && L->Index == R->Index) {
      uint64_t Old0 = L->Words[0], Old1 = L->Words[1];
      L->Words[0] |= W0;
      L->Words[1] |= W1;
      Changed |= (L->Words[0] != Old0) | (L->Words[1] != Old1);
      Prev = L;
      L = L->Next;
    } else {
      Element *New = allocateElement(R->Index, L);
      New->Words[0] = W0;
      New->Words[1] = W1;
      if (Prev)
        Prev->Next = New;
      else
        Head = New;
      Prev = New;
      Changed = true;
    }
    R = R->Next;
  }
  Curr = Head;
  return Changed;
}

bool SparseBitVector::unionWithDelta(const SparseBitVector &RHS,
                                     SparseBitVector &Delta) {
  assert(&Delta != this && &Delta != &RHS &&
         "delta accumulator must be a distinct vector");
  if (this == &RHS || !RHS.Head)
    return false;
  bool Changed = false;
  Element *Prev = nullptr;
  Element *L = Head;
  const Element *R = RHS.Head;
  // Insertion cursor into Delta: new indices arrive in ascending order
  // within one merge, so the cursor never rewinds.
  Element *DPrev = nullptr;
  Element *DCur = Delta.Head;
  auto recordDelta = [&](uint32_t Index, uint64_t New0, uint64_t New1) {
    while (DCur && DCur->Index < Index) {
      DPrev = DCur;
      DCur = DCur->Next;
    }
    if (DCur && DCur->Index == Index) {
      DCur->Words[0] |= New0;
      DCur->Words[1] |= New1;
    } else {
      Element *E = Delta.allocateElement(Index, DCur);
      E->Words[0] = New0;
      E->Words[1] = New1;
      if (DPrev)
        DPrev->Next = E;
      else
        Delta.Head = E;
      DPrev = E;
    }
  };
  while (R) {
    if (L && L->Index == R->Index) {
      uint64_t New0 = R->Words[0] & ~L->Words[0];
      uint64_t New1 = R->Words[1] & ~L->Words[1];
      if (New0 | New1) {
        L->Words[0] |= New0;
        L->Words[1] |= New1;
        Changed = true;
        recordDelta(L->Index, New0, New1);
      }
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
      recordDelta(New->Index, New->Words[0], New->Words[1]);
      R = R->Next;
    } else { // L->Index < R->Index
      Prev = L;
      L = L->Next;
    }
  }
  Curr = Head;
  Delta.Curr = Delta.Head;
  return Changed;
}

bool SparseBitVector::intersects(const SparseBitVector &RHS) const {
  const Element *L = Head;
  const Element *R = RHS.Head;
  while (L && R) {
    if (L->Index == R->Index) {
      if ((L->Words[0] & R->Words[0]) || (L->Words[1] & R->Words[1]))
        return true;
      L = L->Next;
      R = R->Next;
    } else if (L->Index < R->Index) {
      L = L->Next;
    } else {
      R = R->Next;
    }
  }
  return false;
}

bool SparseBitVector::contains(const SparseBitVector &RHS) const {
  const Element *L = Head;
  const Element *R = RHS.Head;
  while (R) {
    while (L && L->Index < R->Index)
      L = L->Next;
    if (!L || L->Index != R->Index)
      return false;
    if ((R->Words[0] & ~L->Words[0]) || (R->Words[1] & ~L->Words[1]))
      return false;
    R = R->Next;
  }
  return true;
}

bool SparseBitVector::operator==(const SparseBitVector &RHS) const {
  if (NumElements != RHS.NumElements) // O(1) reject before the walk.
    return false;
  const Element *L = Head;
  const Element *R = RHS.Head;
  while (L && R) {
    if (L->Index != R->Index || L->Words[0] != R->Words[0] ||
        L->Words[1] != R->Words[1])
      return false;
    L = L->Next;
    R = R->Next;
  }
  return L == R; // Both must be exhausted.
}

uint64_t SparseBitVector::contentHash() const {
  uint64_t H = 14695981039346656037ULL; // FNV-1a offset basis.
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  for (const Element *E = Head; E; E = E->Next) {
    Mix(E->Index);
    Mix(E->Words[0]);
    Mix(E->Words[1]);
  }
  return H;
}

uint32_t SparseBitVector::findFirst() const {
  assert(Head && "findFirst on empty vector");
  const Element *E = Head;
  if (E->Words[0])
    return E->Index * BitsPerElement +
           static_cast<uint32_t>(std::countr_zero(E->Words[0]));
  return E->Index * BitsPerElement + WordBits +
         static_cast<uint32_t>(std::countr_zero(E->Words[1]));
}
