//===- UnionFind.h - Union-find with rank and path compression --*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Disjoint-set forest used to collapse constraint-graph cycles. The paper
/// collapses strongly-connected components "using a union-find data structure
/// with both union-by-rank and path compression heuristics"; this is that
/// structure. Solvers frequently need to merge *into a chosen survivor*
/// (whose points-to set already absorbed the others), so \c uniteInto is
/// provided alongside rank-directed \c unite.
///
//===----------------------------------------------------------------------===//

#ifndef AG_ADT_UNIONFIND_H
#define AG_ADT_UNIONFIND_H

#include <cassert>
#include <cstdint>
#include <numeric>
#include <vector>

namespace ag {

/// Disjoint-set forest over dense uint32_t ids.
class UnionFind {
public:
  UnionFind() = default;

  /// Creates a forest of \p N singleton sets.
  explicit UnionFind(uint32_t N) { grow(N); }

  /// Extends the forest so ids [0, N) are valid.
  void grow(uint32_t N) {
    uint32_t Old = static_cast<uint32_t>(Parent.size());
    if (N <= Old)
      return;
    Parent.resize(N);
    Rank.resize(N, 0);
    std::iota(Parent.begin() + Old, Parent.end(), Old);
  }

  /// Number of ids in the forest.
  uint32_t size() const { return static_cast<uint32_t>(Parent.size()); }

  /// Finds the representative of \p X with path compression.
  uint32_t find(uint32_t X) const {
    assert(X < Parent.size() && "id out of range");
    uint32_t Root = X;
    while (Parent[Root] != Root)
      Root = Parent[Root];
    // Path compression: point everything on the path at the root.
    while (Parent[X] != Root) {
      uint32_t Next = Parent[X];
      Parent[X] = Root;
      X = Next;
    }
    return Root;
  }

  /// Returns true if \p X is its own representative.
  bool isRepresentative(uint32_t X) const { return Parent[X] == X; }

  /// Unites the sets of \p A and \p B by rank.
  /// \returns the representative of the merged set.
  uint32_t unite(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return A;
    if (Rank[A] < Rank[B])
      std::swap(A, B);
    Parent[B] = A;
    if (Rank[A] == Rank[B])
      ++Rank[A];
    return A;
  }

  /// Unites so that \p Survivor's representative remains the representative.
  /// Needed when the caller already merged auxiliary per-node state into
  /// \p Survivor. \returns that representative.
  uint32_t uniteInto(uint32_t Survivor, uint32_t Loser) {
    Survivor = find(Survivor);
    Loser = find(Loser);
    if (Survivor == Loser)
      return Survivor;
    Parent[Loser] = Survivor;
    if (Rank[Survivor] <= Rank[Loser])
      Rank[Survivor] = Rank[Loser] + 1;
    return Survivor;
  }

private:
  mutable std::vector<uint32_t> Parent;
  std::vector<uint32_t> Rank;
};

} // namespace ag

#endif // AG_ADT_UNIONFIND_H
