//===- PtsSet.h - Points-to set representation policies ---------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper evaluates two representations for points-to sets: the GCC
/// sparse bitmap and a per-variable BDD ("we give each variable its own BDD
/// to store its individual points-to set"), noting that switching is "a
/// simple modification". Here the switch is a policy type: solvers are
/// templates over a policy providing a Context (shared state — empty for
/// bitmaps, the BDD manager for BDDs) and a Set with the operations the
/// solvers need.
///
/// Policy interface:
///   struct Policy {
///     struct Context { explicit Context(const ConstraintSystem &); };
///     class Set {
///       bool insert(Context &, NodeId);        // true if newly added
///       bool unionWith(Context &, const Set &); // true if changed
///       bool equals(const Context &, const Set &) const;
///       bool contains(const Context &, NodeId) const;
///       bool empty() const;
///       size_t size(const Context &) const;
///       template <typename F> void forEach(const Context &, F) const;
///       void toBitmap(const Context &, SparseBitVector &) const;
///       void clearAndFree(Context &);           // release storage
///       size_t memoryBytes() const;             // owned bytes (bitmaps)
///     };
///   };
///
/// Every NodeId crossing this interface is an original node id. What a
/// Set stores internally is the policy's business: the bitmap policy
/// stores dense object indices (see BitmapPtsPolicy::Context), the BDD
/// policy stores node ids.
///
//===----------------------------------------------------------------------===//

#ifndef AG_CORE_PTSSET_H
#define AG_CORE_PTSSET_H

#include "adt/ElementArena.h"
#include "adt/SparseBitVector.h"
#include "bdd/BddDomain.h"
#include "constraints/ConstraintSystem.h"

#include <memory>
#include <vector>

namespace ag {

/// Sparse-bitmap points-to sets (the GCC 4.1.1 representation), stored
/// over a dense object index rather than over node ids.
struct BitmapPtsPolicy {
  /// Only AddressOf sources are ever pointed to, and the node numbering
  /// interleaves them with every other node, so bitmaps keyed by node id
  /// spread a near-universal set over many sparsely filled 128-bit
  /// elements. The Context numbers the objects densely, in ascending
  /// node-id order; a Set stores indices and translates at its boundary
  /// (insert/contains map node -> index, every visitor and toBitmap maps
  /// back). Because the map is monotone, sets iterate in node-id order,
  /// exactly as node-id bitmaps would.
  struct Context {
    explicit Context(const ConstraintSystem &CS)
        : IndexOf(CS.numNodes(), Unmapped) {
      for (const Constraint &C : CS.constraints())
        if (C.Kind == ConstraintKind::AddressOf)
          IndexOf[C.Src] = 0;
      for (NodeId V = 0; V != IndexOf.size(); ++V)
        if (IndexOf[V] != Unmapped) {
          IndexOf[V] = static_cast<uint32_t>(NodeOf.size());
          NodeOf.push_back(V);
        }
    }

    /// Dense index of \p N, or Unmapped if \p N is not an object.
    uint32_t indexOf(NodeId N) const {
      return N < IndexOf.size() ? IndexOf[N] : Unmapped;
    }

    /// Dense index of \p N, giving a node that is not yet an object the
    /// next index. Only a warm-start delta that takes the address of a
    /// former non-object reaches the append; its index breaks the
    /// ascending order of iteration, never set semantics.
    uint32_t indexFor(NodeId N) {
      if (N >= IndexOf.size())
        IndexOf.resize(N + 1, Unmapped);
      if (IndexOf[N] == Unmapped) {
        IndexOf[N] = static_cast<uint32_t>(NodeOf.size());
        NodeOf.push_back(N);
      }
      return IndexOf[N];
    }

    static constexpr uint32_t Unmapped = ~0u;
    std::vector<uint32_t> IndexOf; ///< Node id -> dense index.
    std::vector<NodeId> NodeOf;    ///< Dense index -> node id.
  };

  class Set {
  public:
    bool insert(Context &Ctx, NodeId N) { return Bits.set(Ctx.indexFor(N)); }
    bool unionWith(Context &, const Set &RHS) {
      return Bits.unionWith(RHS.Bits);
    }

    /// Fused union that visits every newly added element in ascending
    /// order during the same pass (difference propagation's
    /// forEachDiff + absorb as one walk). \p Fn must not mutate either
    /// operand. \returns true if this changed.
    template <typename F>
    bool unionWithVisitNew(Context &Ctx, const Set &RHS, F Fn) {
      return Bits.unionWithVisitNew(
          RHS.Bits, [&](uint32_t I) { Fn(Ctx.NodeOf[I]); });
    }

    /// Fused union that ORs the newly added bits into \p Delta during
    /// the same merge pass (difference propagation's producer side:
    /// \p Delta accumulates what arrived here since it was last
    /// drained). Word-level only — no per-bit iteration.
    bool unionWithDelta(Context &, const Set &RHS, Set &Delta) {
      return Bits.unionWithDelta(RHS.Bits, Delta.Bits);
    }

    /// Routes this set's element allocation through \p A (must precede
    /// any insertion; see SparseBitVector::setArena).
    void bindArena(ElementArena *A) { Bits.setArena(A); }
    bool intersectWith(Context &, const Set &RHS) {
      return Bits.intersectWith(RHS.Bits);
    }
    bool equals(const Context &, const Set &RHS) const {
      return Bits == RHS.Bits;
    }
    bool contains(const Context &Ctx, NodeId N) const {
      uint32_t I = Ctx.indexOf(N);
      return I != Context::Unmapped && Bits.test(I);
    }
    bool empty() const { return Bits.empty(); }
    size_t size(const Context &) const { return Bits.count(); }

    template <typename F> void forEach(const Context &Ctx, F Fn) const {
      for (uint32_t I : Bits)
        Fn(Ctx.NodeOf[I]);
    }

    /// Visits the elements of this set that are not in \p Exclude.
    /// Allocation-free: a dual-cursor merge walk over the two element
    /// lists (no temporary difference vector is built).
    template <typename F>
    void forEachDiff(const Context &Ctx, const Set &Exclude, F Fn) const {
      Bits.forEachDiff(Exclude.Bits, [&](uint32_t I) { Fn(Ctx.NodeOf[I]); });
    }

    void toBitmap(const Context &Ctx, SparseBitVector &Out) const {
      Out.clear();
      forEach(Ctx, [&](NodeId N) { Out.set(N); });
    }
    void clearAndFree(Context &) { Bits.clear(); }
    size_t memoryBytes() const { return Bits.memoryBytes(); }

  private:
    SparseBitVector Bits;
  };
};

/// Per-variable BDD points-to sets sharing one manager ("unlike BLQ, which
/// stores the entire points-to solution in a single BDD, we give each
/// variable its own BDD").
struct BddPtsPolicy {
  /// Sets keep node ids: the object domain spans every node.
  struct Context {
    explicit Context(const ConstraintSystem &CS)
        : Mgr(std::make_unique<BddManager>(1u << 12)),
          Doms(std::make_unique<BddDomains>(
              *Mgr, std::vector<uint64_t>{std::max(CS.numNodes(), 2u)})) {}

    /// One shared manager and a single object domain.
    std::unique_ptr<BddManager> Mgr;
    std::unique_ptr<BddDomains> Doms;
    static constexpr unsigned ObjDom = 0;
  };

  class Set {
  public:
    bool insert(Context &Ctx, NodeId N) {
      ensure(Ctx);
      Bdd Elem = Ctx.Doms->element(Context::ObjDom, N);
      Bdd New = Ctx.Mgr->bddOr(Val, Elem);
      bool Changed = New.ref() != Val.ref();
      Val = std::move(New);
      return Changed;
    }

    bool unionWith(Context &Ctx, const Set &RHS) {
      if (RHS.Val.manager() == nullptr)
        return false;
      ensure(Ctx);
      Bdd New = Ctx.Mgr->bddOr(Val, RHS.Val);
      bool Changed = New.ref() != Val.ref();
      Val = std::move(New);
      return Changed;
    }

    /// Union + visit of the newly added elements. BDD diff is already a
    /// single hash-consed operation, so this is diff-visit then union.
    /// \p Fn must not mutate either operand.
    template <typename F>
    bool unionWithVisitNew(Context &Ctx, const Set &RHS, F Fn) {
      RHS.forEachDiff(Ctx, *this, Fn);
      return unionWith(Ctx, RHS);
    }

    /// Union recording the growth into \p Delta. The BDD delta is the
    /// whole source set on any change — over-approximate but sound:
    /// difference propagation may re-propagate known elements, it just
    /// must never miss a new one. (An exact diff would cost a bddDiff
    /// per changed union, which the hash-consed or already dominates.)
    bool unionWithDelta(Context &Ctx, const Set &RHS, Set &Delta) {
      bool Changed = unionWith(Ctx, RHS);
      if (Changed)
        Delta.unionWith(Ctx, RHS);
      return Changed;
    }

    /// Arena binding is meaningless for BDD sets (storage lives in the
    /// shared node table); accepted so templated solver code compiles.
    void bindArena(ElementArena *) {}

    bool intersectWith(Context &Ctx, const Set &RHS) {
      if (empty())
        return false;
      if (RHS.Val.manager() == nullptr) {
        bool Changed = !Val.isFalse();
        Val = Ctx.Mgr->falseBdd();
        return Changed;
      }
      Bdd New = Ctx.Mgr->bddAnd(Val, RHS.Val);
      bool Changed = New.ref() != Val.ref();
      Val = std::move(New);
      return Changed;
    }

    /// Hash consing makes this O(1) — an interesting interaction with
    /// LCD's equality heuristic.
    bool equals(const Context &, const Set &RHS) const {
      BddNodeRef A = Val.manager() ? Val.ref() : BddFalse;
      BddNodeRef B = RHS.Val.manager() ? RHS.Val.ref() : BddFalse;
      return A == B;
    }

    bool contains(const Context &Ctx, NodeId N) const {
      if (Val.manager() == nullptr)
        return false;
      // Walk the element's bits down the BDD.
      const std::vector<uint32_t> &Levels =
          Ctx.Doms->levels(Context::ObjDom);
      uint32_t NumBits = static_cast<uint32_t>(Levels.size());
      BddNodeRef Cur = Val.ref();
      for (uint32_t J = 0; J != NumBits && Cur > BddTrue; ++J) {
        if (Ctx.Mgr->level(Cur) != Levels[J])
          continue; // Unconstrained bit.
        bool Bit = (N >> (NumBits - 1 - J)) & 1;
        Cur = Bit ? Ctx.Mgr->high(Cur) : Ctx.Mgr->low(Cur);
      }
      return Cur != BddFalse;
    }

    bool empty() const {
      return Val.manager() == nullptr || Val.isFalse();
    }

    size_t size(const Context &Ctx) const {
      if (empty())
        return 0;
      return Ctx.Doms->countElements(Val, Context::ObjDom);
    }

    template <typename F> void forEach(const Context &Ctx, F Fn) const {
      if (empty())
        return;
      // This is the bdd_allsat path the paper calls out as the main cost
      // of the BDD representation.
      Ctx.Doms->forEachElement(Val, Context::ObjDom, [&](uint64_t V) {
        Fn(static_cast<NodeId>(V));
      });
    }

    /// Visits the elements of this set that are not in \p Exclude.
    template <typename F>
    void forEachDiff(Context &Ctx, const Set &Exclude, F Fn) const {
      if (empty())
        return;
      if (Exclude.Val.manager() == nullptr) {
        forEach(Ctx, Fn);
        return;
      }
      Bdd Diff = Ctx.Mgr->bddDiff(Val, Exclude.Val);
      if (Diff.isFalse())
        return;
      Ctx.Doms->forEachElement(Diff, Context::ObjDom, [&](uint64_t V) {
        Fn(static_cast<NodeId>(V));
      });
    }

    void toBitmap(const Context &Ctx, SparseBitVector &Out) const {
      Out.clear();
      forEach(Ctx, [&](NodeId N) { Out.set(N); });
    }

    void clearAndFree(Context &) { Val = Bdd(); }

    /// Storage is shared in the manager's node table; attribute nothing
    /// per set (the table is tracked via MemCategory::BddTable).
    size_t memoryBytes() const { return 0; }

  private:
    void ensure(Context &Ctx) {
      if (Val.manager() == nullptr)
        Val = Ctx.Mgr->falseBdd();
    }

    Bdd Val;
  };
};

} // namespace ag

#endif // AG_CORE_PTSSET_H
