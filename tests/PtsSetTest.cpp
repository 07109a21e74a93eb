//===- PtsSetTest.cpp - Points-to set policy tests ------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed tests run against both points-to set policies: the two
/// representations must behave identically as sets (invariant 5 of
/// DESIGN.md), so every typed test is representation-generic. The
/// bitmap-specific tests pin the dense object index: sets store indices
/// but report original node ids.
///
//===----------------------------------------------------------------------===//

#include "core/PtsSet.h"

#include "adt/Rng.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

using namespace ag;

namespace {

/// A system of \p NumNodes nodes whose only objects are \p Objects.
ConstraintSystem sparseObjects(uint32_t NumNodes,
                               const std::vector<NodeId> &Objects) {
  ConstraintSystem CS;
  for (uint32_t I = 0; I != NumNodes; ++I)
    CS.addNode();
  for (NodeId O : Objects)
    CS.addAddressOf(1, O);
  return CS;
}

/// A system of \p N nodes in which every node is an object, so a set may
/// hold any id below \p N.
ConstraintSystem allObjects(uint32_t N) {
  std::vector<NodeId> All(N);
  std::iota(All.begin(), All.end(), 0);
  return sparseObjects(N, All);
}

template <typename Policy> class PtsSetTyped : public testing::Test {
protected:
  PtsSetTyped() : CS(allObjects(4096)), Ctx(CS) {}
  ConstraintSystem CS;
  typename Policy::Context Ctx;
};

using Policies = testing::Types<BitmapPtsPolicy, BddPtsPolicy>;
TYPED_TEST_SUITE(PtsSetTyped, Policies);

TYPED_TEST(PtsSetTyped, EmptyBasics) {
  typename TypeParam::Set S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.size(this->Ctx), 0u);
  EXPECT_FALSE(S.contains(this->Ctx, 7));
  int Count = 0;
  S.forEach(this->Ctx, [&](NodeId) { ++Count; });
  EXPECT_EQ(Count, 0);
}

TYPED_TEST(PtsSetTyped, InsertReportsChange) {
  typename TypeParam::Set S;
  EXPECT_TRUE(S.insert(this->Ctx, 42));
  EXPECT_FALSE(S.insert(this->Ctx, 42));
  EXPECT_TRUE(S.insert(this->Ctx, 7));
  EXPECT_TRUE(S.contains(this->Ctx, 42));
  EXPECT_TRUE(S.contains(this->Ctx, 7));
  EXPECT_FALSE(S.contains(this->Ctx, 8));
  EXPECT_EQ(S.size(this->Ctx), 2u);
}

TYPED_TEST(PtsSetTyped, UnionWith) {
  typename TypeParam::Set A, B;
  A.insert(this->Ctx, 1);
  A.insert(this->Ctx, 2);
  B.insert(this->Ctx, 2);
  B.insert(this->Ctx, 3000);
  EXPECT_TRUE(A.unionWith(this->Ctx, B));
  EXPECT_FALSE(A.unionWith(this->Ctx, B)) << "idempotent";
  EXPECT_EQ(A.size(this->Ctx), 3u);
  EXPECT_TRUE(A.contains(this->Ctx, 3000));
  // Union with an empty (default) set is a no-op.
  typename TypeParam::Set Empty;
  EXPECT_FALSE(A.unionWith(this->Ctx, Empty));
}

TYPED_TEST(PtsSetTyped, IntersectWith) {
  typename TypeParam::Set A, B;
  for (NodeId V : {1u, 2u, 3u, 100u})
    A.insert(this->Ctx, V);
  for (NodeId V : {2u, 100u, 999u})
    B.insert(this->Ctx, V);
  EXPECT_TRUE(A.intersectWith(this->Ctx, B));
  EXPECT_EQ(A.size(this->Ctx), 2u);
  EXPECT_TRUE(A.contains(this->Ctx, 2));
  EXPECT_TRUE(A.contains(this->Ctx, 100));
  typename TypeParam::Set Empty;
  EXPECT_TRUE(A.intersectWith(this->Ctx, Empty));
  EXPECT_TRUE(A.empty());
}

TYPED_TEST(PtsSetTyped, EqualsIsStructural) {
  typename TypeParam::Set A, B;
  EXPECT_TRUE(A.equals(this->Ctx, B)) << "two empties are equal";
  A.insert(this->Ctx, 5);
  EXPECT_FALSE(A.equals(this->Ctx, B));
  B.insert(this->Ctx, 5);
  EXPECT_TRUE(A.equals(this->Ctx, B));
  A.insert(this->Ctx, 6);
  B.insert(this->Ctx, 7);
  EXPECT_FALSE(A.equals(this->Ctx, B));
}

TYPED_TEST(PtsSetTyped, ForEachVisitsSorted) {
  typename TypeParam::Set S;
  for (NodeId V : {900u, 3u, 77u, 4000u})
    S.insert(this->Ctx, V);
  std::vector<NodeId> Seen;
  S.forEach(this->Ctx, [&](NodeId V) { Seen.push_back(V); });
  EXPECT_EQ(Seen, (std::vector<NodeId>{3, 77, 900, 4000}));
}

TYPED_TEST(PtsSetTyped, ForEachDiff) {
  typename TypeParam::Set S, Exclude;
  for (NodeId V : {1u, 2u, 3u, 4u})
    S.insert(this->Ctx, V);
  Exclude.insert(this->Ctx, 2);
  Exclude.insert(this->Ctx, 4);
  Exclude.insert(this->Ctx, 99); // Not in S: irrelevant.
  std::vector<NodeId> Seen;
  S.forEachDiff(this->Ctx, Exclude,
                [&](NodeId V) { Seen.push_back(V); });
  EXPECT_EQ(Seen, (std::vector<NodeId>{1, 3}));
  // Diff against empty = full iteration.
  typename TypeParam::Set Empty;
  Seen.clear();
  S.forEachDiff(this->Ctx, Empty, [&](NodeId V) { Seen.push_back(V); });
  EXPECT_EQ(Seen.size(), 4u);
}

TYPED_TEST(PtsSetTyped, ToBitmapRoundTrip) {
  typename TypeParam::Set S;
  for (NodeId V : {0u, 64u, 129u, 4000u})
    S.insert(this->Ctx, V);
  SparseBitVector Bits;
  S.toBitmap(this->Ctx, Bits);
  EXPECT_EQ(Bits.count(), 4u);
  for (NodeId V : {0u, 64u, 129u, 4000u})
    EXPECT_TRUE(Bits.test(V));
}

TYPED_TEST(PtsSetTyped, ClearAndFree) {
  typename TypeParam::Set S;
  S.insert(this->Ctx, 10);
  S.clearAndFree(this->Ctx);
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(this->Ctx, 10)) << "reusable after clear";
}

TYPED_TEST(PtsSetTyped, RandomizedAgainstStdSet) {
  Rng R(99);
  typename TypeParam::Set S;
  std::set<NodeId> Oracle;
  for (int Step = 0; Step != 600; ++Step) {
    NodeId V = static_cast<NodeId>(R.nextBelow(4096));
    switch (R.nextBelow(3)) {
    case 0:
      EXPECT_EQ(S.insert(this->Ctx, V), Oracle.insert(V).second);
      break;
    case 1:
      EXPECT_EQ(S.contains(this->Ctx, V), Oracle.count(V) > 0);
      break;
    case 2:
      EXPECT_EQ(S.size(this->Ctx), Oracle.size());
      break;
    }
  }
  std::vector<NodeId> Seen;
  S.forEach(this->Ctx, [&](NodeId V) { Seen.push_back(V); });
  EXPECT_EQ(Seen, std::vector<NodeId>(Oracle.begin(), Oracle.end()));
}

TEST(BddPtsSpecific, EqualityIsPointerEquality) {
  // The property LCD exploits: with hash-consing, two equal sets share a
  // node, so the equality check is O(1) — build the same set two ways.
  BddPtsPolicy::Context Ctx(allObjects(1024));
  BddPtsPolicy::Set A, B;
  for (NodeId V : {5u, 10u, 15u})
    A.insert(Ctx, V);
  for (NodeId V : {15u, 5u, 10u})
    B.insert(Ctx, V);
  EXPECT_TRUE(A.equals(Ctx, B));
}

std::vector<NodeId> elementsOf(const BitmapPtsPolicy::Context &Ctx,
                               const BitmapPtsPolicy::Set &S) {
  std::vector<NodeId> Out;
  S.forEach(Ctx, [&](NodeId V) { Out.push_back(V); });
  return Out;
}

TEST(BitmapDenseIndex, SparseObjectsReportOriginalIds) {
  const std::vector<NodeId> Objects = {5, 700, 9000};
  ConstraintSystem CS = sparseObjects(9001, Objects);
  BitmapPtsPolicy::Context Ctx(CS);

  BitmapPtsPolicy::Set S;
  EXPECT_TRUE(S.insert(Ctx, 9000));
  EXPECT_TRUE(S.insert(Ctx, 5));
  EXPECT_TRUE(S.insert(Ctx, 700));
  EXPECT_FALSE(S.insert(Ctx, 700));
  EXPECT_EQ(S.size(Ctx), 3u);
  EXPECT_EQ(elementsOf(Ctx, S), Objects);
  for (NodeId V = 0; V != CS.numNodes(); ++V)
    EXPECT_EQ(S.contains(Ctx, V), V == 5 || V == 700 || V == 9000) << V;
  EXPECT_FALSE(S.contains(Ctx, 1u << 20)) << "beyond the node table";

  SparseBitVector Bits;
  S.toBitmap(Ctx, Bits);
  EXPECT_EQ(std::vector<NodeId>(Bits.begin(), Bits.end()), Objects);

  BitmapPtsPolicy::Set Exclude;
  Exclude.insert(Ctx, 700);
  std::vector<NodeId> Seen;
  S.forEachDiff(Ctx, Exclude, [&](NodeId V) { Seen.push_back(V); });
  EXPECT_EQ(Seen, (std::vector<NodeId>{5, 9000}));

  BitmapPtsPolicy::Set Into;
  Into.insert(Ctx, 5);
  Seen.clear();
  EXPECT_TRUE(Into.unionWithVisitNew(Ctx, S,
                                     [&](NodeId V) { Seen.push_back(V); }));
  EXPECT_EQ(Seen, (std::vector<NodeId>{700, 9000}));
  EXPECT_TRUE(Into.equals(Ctx, S));
}

TEST(BitmapDenseIndex, ObjectsPackIntoFewElements) {
  // K objects 128 ids apart: a node-id bitmap needs one element each, the
  // dense index ceil(K/128) in all.
  constexpr uint32_t K = 300;
  std::vector<NodeId> Objects;
  for (uint32_t I = 0; I != K; ++I)
    Objects.push_back(2 + 128 * I);
  ConstraintSystem CS = sparseObjects(Objects.back() + 1, Objects);
  BitmapPtsPolicy::Context Ctx(CS);
  BitmapPtsPolicy::Set S;
  for (NodeId O : Objects)
    S.insert(Ctx, O);
  EXPECT_EQ(S.memoryBytes(),
            ((K + 127) / 128) * SparseBitVector::elementBytes());
  EXPECT_EQ(elementsOf(Ctx, S), Objects);
}

TEST(BitmapDenseIndex, NonObjectInsertAppendsAnIndex) {
  // A warm-start delta may take the address of a node that was not an
  // object; it takes the next index and round-trips like any object.
  ConstraintSystem CS = sparseObjects(1000, {5, 700});
  BitmapPtsPolicy::Context Ctx(CS);
  BitmapPtsPolicy::Set S;
  S.insert(Ctx, 700);
  EXPECT_FALSE(S.contains(Ctx, 300));
  EXPECT_TRUE(S.insert(Ctx, 300));
  EXPECT_TRUE(S.insert(Ctx, 5000)) << "beyond the node table";
  EXPECT_TRUE(S.contains(Ctx, 300));
  EXPECT_TRUE(S.contains(Ctx, 5000));
  EXPECT_FALSE(S.contains(Ctx, 5));
  SparseBitVector Bits;
  S.toBitmap(Ctx, Bits);
  EXPECT_EQ(std::vector<NodeId>(Bits.begin(), Bits.end()),
            (std::vector<NodeId>{300, 700, 5000}));
}

} // namespace
