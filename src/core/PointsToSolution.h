//===- PointsToSolution.h - Final analysis result ---------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result every solver produces: for each node, the set of memory
/// objects it may point to. Points-to sets are stored per representative
/// (cycle collapsing makes many nodes share one set); set elements are
/// always *original* object ids — collapsing merges the variable role of
/// nodes, never their identity as pointed-to locations.
///
/// Storage is hash-cons friendly: each representative holds a shared
/// copy-on-write handle, so distinct representatives with identical sets
/// (pervasive after cycle collapses) can reference one physical
/// SparseBitVector. A null handle means the empty set. Reads never
/// detach; mutableSet() detaches (clones) any handle with other owners,
/// so aliasing is invisible to clients (DESIGN.md §13).
///
//===----------------------------------------------------------------------===//

#ifndef AG_CORE_POINTSTOSOLUTION_H
#define AG_CORE_POINTSTOSOLUTION_H

#include "adt/InternTable.h"
#include "adt/SparseBitVector.h"
#include "constraints/Constraint.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ag {

/// A complete points-to solution over a constraint system's nodes.
class PointsToSolution {
public:
  PointsToSolution() = default;

  /// Creates a solution for \p NumNodes nodes, initially all empty with
  /// every node its own representative.
  explicit PointsToSolution(uint32_t NumNodes)
      : Rep(NumNodes), Sets(NumNodes) {
    for (uint32_t I = 0; I != NumNodes; ++I)
      Rep[I] = I;
  }

  uint32_t numNodes() const { return static_cast<uint32_t>(Rep.size()); }

  /// Declares that \p V shares its points-to set with \p Representative.
  /// \p Representative must map to itself.
  void setRep(NodeId V, NodeId Representative) {
    assert(Rep[Representative] == Representative && "rep must be canonical");
    Rep[V] = Representative;
  }

  /// Representative whose set entry backs \p V.
  NodeId repOf(NodeId V) const { return Rep[V]; }

  /// Mutable set of a representative (used by solvers during extraction).
  /// Copy-on-write: if the handle is shared with another representative
  /// (or another solution copy), it detaches onto a private clone first,
  /// so writers never observe — or cause — aliasing.
  SparseBitVector &mutableSet(NodeId Representative) {
    assert(Rep[Representative] == Representative && "rep must be canonical");
    SetHandle &H = Sets[Representative];
    if (!H)
      H = std::make_shared<SparseBitVector>();
    else if (H.use_count() > 1)
      H = std::make_shared<SparseBitVector>(*H);
    return *H;
  }

  /// The points-to set of \p V.
  const SparseBitVector &pointsTo(NodeId V) const {
    const SetHandle &H = Sets[Rep[V]];
    return H ? *H : emptySet();
  }

  /// The shared handle backing representative(\p V)'s set; null for the
  /// empty set. Physical identity (handle pointer equality) is what the
  /// serve layer keys canonical cache ids on.
  const std::shared_ptr<SparseBitVector> &sharedSet(NodeId V) const {
    return Sets[Rep[V]];
  }

  /// Installs \p S as representative \p Representative's set, sharing
  /// storage with every other holder of the handle. Passing a null (or
  /// empty-set) handle is allowed and means the empty set.
  void setSharedSet(NodeId Representative,
                    std::shared_ptr<SparseBitVector> S) {
    assert(Rep[Representative] == Representative && "rep must be canonical");
    Sets[Representative] = std::move(S);
  }

  /// Hash-conses the stored sets in representative-id order: after this,
  /// any two representatives with equal sets share one physical set.
  /// Returns {hits, misses} for observability. Used by solvers that
  /// build their solution via mutableSet() and by fallback paths;
  /// SolverContext::extractSolution interns on the fly instead (the
  /// duplicates must never exist for the peak to shrink).
  std::pair<uint64_t, uint64_t> internShared() {
    SetInterner In;
    for (uint32_t V = 0; V != numNodes(); ++V) {
      if (Rep[V] != V)
        continue;
      SetHandle &H = Sets[V];
      if (!H || H->empty())
        continue;
      H = In.internShared(H);
    }
    In.publish();
    return {In.hits(), In.misses()};
  }

  /// True if \p V may point to \p Obj.
  bool pointsToObj(NodeId V, NodeId Obj) const {
    return pointsTo(V).test(Obj);
  }

  /// May-alias query: do the two points-to sets intersect?
  bool mayAlias(NodeId A, NodeId B) const {
    return pointsTo(A).intersects(pointsTo(B));
  }

  /// The points-to set of \p V as a sorted vector (convenience for tests
  /// and clients).
  std::vector<NodeId> pointsToVector(NodeId V) const {
    std::vector<NodeId> Out;
    for (uint32_t O : pointsTo(V))
      Out.push_back(O);
    return Out;
  }

  /// Structural equality: every node has the same points-to set. This is
  /// the cross-solver invariant the test suite leans on.
  bool operator==(const PointsToSolution &RHS) const {
    if (numNodes() != RHS.numNodes())
      return false;
    for (uint32_t V = 0; V != numNodes(); ++V)
      if (!(pointsTo(V) == RHS.pointsTo(V)))
        return false;
    return true;
  }
  bool operator!=(const PointsToSolution &RHS) const {
    return !(*this == RHS);
  }

  /// Sum over all nodes of |pts(node)| (each node counted, shared sets
  /// counted repeatedly) — a standard precision/size metric.
  uint64_t totalPointsToSize() const {
    uint64_t Total = 0;
    for (uint32_t V = 0; V != numNodes(); ++V)
      Total += pointsTo(V).count();
    return Total;
  }

  /// Deterministic text dump: one line per node, `<id>: <obj> <obj> ...`
  /// with nodes in id order and set elements ascending (SparseBitVector
  /// iterates sorted). Because lines depend only on the per-node routed
  /// sets — not on representative structure — every solver kind and
  /// set representation producing the same solution dumps identical bytes; the
  /// snapshot layer leans on this stability.
  std::string dumpText() const {
    std::string Out;
    for (uint32_t V = 0; V != numNodes(); ++V) {
      Out += std::to_string(V);
      Out += ':';
      for (uint32_t O : pointsTo(V)) {
        Out += ' ';
        Out += std::to_string(O);
      }
      Out += '\n';
    }
    return Out;
  }

  /// FNV hash of the whole solution, for quick regression comparisons.
  uint64_t hash() const {
    uint64_t H = 0xcbf29ce484222325ull;
    for (uint32_t V = 0; V != numNodes(); ++V)
      for (uint32_t O : pointsTo(V)) {
        H ^= (uint64_t(V) << 32) | O;
        H *= 0x100000001b3ull;
      }
    return H;
  }

  /// Number of distinct physical sets across representatives (empty sets
  /// excluded) and the bytes they occupy — the sharing summary printed
  /// by `ptatool solve --stats`.
  struct SharingSummary {
    uint64_t Reps = 0;          ///< Representatives with non-empty sets.
    uint64_t PhysicalSets = 0;  ///< Distinct physical sets among them.
    uint64_t PhysicalBytes = 0; ///< Bytes of those distinct sets.
    uint64_t RoutedBytes = 0;   ///< Bytes if every rep held a private copy.
  };
  SharingSummary sharingSummary() const {
    SharingSummary S;
    std::unordered_set<const SparseBitVector *> Seen;
    for (uint32_t V = 0; V != numNodes(); ++V) {
      if (Rep[V] != V || !Sets[V] || Sets[V]->empty())
        continue;
      ++S.Reps;
      S.RoutedBytes += Sets[V]->memoryBytes();
      const SparseBitVector *P = Sets[V].get();
      if (Seen.insert(P).second) {
        ++S.PhysicalSets;
        S.PhysicalBytes += P->memoryBytes();
      }
    }
    return S;
  }

private:
  using SetHandle = std::shared_ptr<SparseBitVector>;

  static const SparseBitVector &emptySet() {
    static const SparseBitVector E;
    return E;
  }

  std::vector<NodeId> Rep;
  std::vector<SetHandle> Sets;
};

} // namespace ag

#endif // AG_CORE_POINTSTOSOLUTION_H
