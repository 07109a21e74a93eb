//===- SparseBitVectorTest.cpp - Tests for the GCC-style bitmap -----------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "adt/SparseBitVector.h"

#include "adt/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace ag;

namespace {

std::vector<uint32_t> toVector(const SparseBitVector &V) {
  std::vector<uint32_t> Out;
  for (uint32_t X : V)
    Out.push_back(X);
  return Out;
}

TEST(SparseBitVector, EmptyBasics) {
  SparseBitVector V;
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.count(), 0u);
  EXPECT_FALSE(V.test(0));
  EXPECT_FALSE(V.test(12345));
  EXPECT_EQ(V.begin(), V.end());
  EXPECT_EQ(V.memoryBytes(), 0u);
}

TEST(SparseBitVector, SetAndTest) {
  SparseBitVector V;
  EXPECT_TRUE(V.set(5));
  EXPECT_FALSE(V.set(5)) << "second set of same bit reports no change";
  EXPECT_TRUE(V.test(5));
  EXPECT_FALSE(V.test(4));
  EXPECT_FALSE(V.test(6));
  EXPECT_EQ(V.count(), 1u);
  EXPECT_FALSE(V.empty());
}

TEST(SparseBitVector, SetAcrossElementBoundaries) {
  SparseBitVector V;
  // 128-bit elements: exercise bits around the boundaries.
  for (uint32_t Bit : {0u, 63u, 64u, 127u, 128u, 129u, 255u, 256u, 1000000u})
    EXPECT_TRUE(V.set(Bit));
  for (uint32_t Bit : {0u, 63u, 64u, 127u, 128u, 129u, 255u, 256u, 1000000u})
    EXPECT_TRUE(V.test(Bit));
  for (uint32_t Bit : {1u, 62u, 65u, 126u, 130u, 254u, 257u, 999999u})
    EXPECT_FALSE(V.test(Bit));
  EXPECT_EQ(V.count(), 9u);
}

TEST(SparseBitVector, OutOfOrderInsertionIteratesSorted) {
  SparseBitVector V;
  V.set(500);
  V.set(3);
  V.set(250);
  V.set(90);
  EXPECT_EQ(toVector(V), (std::vector<uint32_t>{3, 90, 250, 500}));
}

TEST(SparseBitVector, ForEachDiffWalksBothListsWithoutAllocating) {
  SparseBitVector V, Exclude;
  // Elements interleave every which way: V-only elements before, between
  // and after Exclude's, a shared element with partial overlap in both
  // words, and an Exclude-only element V must skip past.
  for (uint32_t Bit : {3u, 64u, 127u, 300u, 310u, 901u, 5000u})
    V.set(Bit);
  for (uint32_t Bit : {200u, 300u, 640u, 901u, 6000u})
    Exclude.set(Bit);
  std::vector<uint32_t> Seen;
  V.forEachDiff(Exclude, [&](uint32_t Bit) { Seen.push_back(Bit); });
  EXPECT_EQ(Seen, (std::vector<uint32_t>{3, 64, 127, 310, 5000}));

  // Against an empty exclusion it degenerates to plain iteration.
  Seen.clear();
  V.forEachDiff(SparseBitVector(), [&](uint32_t Bit) { Seen.push_back(Bit); });
  EXPECT_EQ(Seen, toVector(V));

  // Excluding a superset yields nothing.
  SparseBitVector Super = Exclude;
  Super.unionWith(V);
  Seen.clear();
  V.forEachDiff(Super, [&](uint32_t Bit) { Seen.push_back(Bit); });
  EXPECT_TRUE(Seen.empty());
}

TEST(SparseBitVector, ForEachDiffMatchesSubtractRandomized) {
  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    Rng R(Seed * 77);
    SparseBitVector A, B;
    for (int I = 0; I != 200; ++I)
      A.set(static_cast<uint32_t>(R.next() % 2048));
    for (int I = 0; I != 200; ++I)
      B.set(static_cast<uint32_t>(R.next() % 2048));
    SparseBitVector D = A;
    D.subtract(B);
    std::vector<uint32_t> Seen;
    A.forEachDiff(B, [&](uint32_t Bit) { Seen.push_back(Bit); });
    EXPECT_EQ(Seen, toVector(D)) << "seed " << Seed;
  }
}

TEST(SparseBitVector, Reset) {
  SparseBitVector V;
  V.set(10);
  V.set(200);
  EXPECT_TRUE(V.reset(10));
  EXPECT_FALSE(V.reset(10)) << "resetting a clear bit reports no change";
  EXPECT_FALSE(V.test(10));
  EXPECT_TRUE(V.test(200));
  EXPECT_TRUE(V.reset(200));
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.memoryBytes(), 0u) << "empty elements must be freed";
}

TEST(SparseBitVector, FindFirst) {
  SparseBitVector V;
  V.set(700);
  EXPECT_EQ(V.findFirst(), 700u);
  V.set(65);
  EXPECT_EQ(V.findFirst(), 65u);
  V.set(64);
  EXPECT_EQ(V.findFirst(), 64u);
  V.set(3);
  EXPECT_EQ(V.findFirst(), 3u);
}

TEST(SparseBitVector, UnionWith) {
  SparseBitVector A, B;
  A.set(1);
  A.set(300);
  B.set(1);
  B.set(200);
  B.set(100000);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(toVector(A), (std::vector<uint32_t>{1, 200, 300, 100000}));
  EXPECT_FALSE(A.unionWith(B)) << "second union is a no-op";
  SparseBitVector Empty;
  EXPECT_FALSE(A.unionWith(Empty));
  EXPECT_TRUE(Empty.unionWith(A));
  EXPECT_TRUE(Empty == A);
}

TEST(SparseBitVector, IntersectWith) {
  SparseBitVector A, B;
  for (uint32_t X : {1u, 5u, 130u, 260u, 1000u})
    A.set(X);
  for (uint32_t X : {5u, 130u, 999u, 2000u})
    B.set(X);
  EXPECT_TRUE(A.intersectWith(B));
  EXPECT_EQ(toVector(A), (std::vector<uint32_t>{5, 130}));
  EXPECT_FALSE(A.intersectWith(B));
  SparseBitVector Empty;
  EXPECT_TRUE(A.intersectWith(Empty));
  EXPECT_TRUE(A.empty());
}

TEST(SparseBitVector, Subtract) {
  SparseBitVector A, B;
  for (uint32_t X : {1u, 5u, 130u, 260u})
    A.set(X);
  B.set(5);
  B.set(260);
  B.set(7777);
  EXPECT_TRUE(A.subtract(B));
  EXPECT_EQ(toVector(A), (std::vector<uint32_t>{1, 130}));
  EXPECT_FALSE(A.subtract(B));
}

TEST(SparseBitVector, UnionWithMinus) {
  SparseBitVector A, B, X;
  A.set(1);
  B.set(1);
  B.set(2);
  B.set(300);
  B.set(400);
  X.set(300);
  X.set(1);
  EXPECT_TRUE(A.unionWithMinus(B, X));
  EXPECT_EQ(toVector(A), (std::vector<uint32_t>{1, 2, 400}));
  EXPECT_FALSE(A.unionWithMinus(B, X));
}

TEST(SparseBitVector, IntersectsAndContains) {
  SparseBitVector A, B;
  A.set(10);
  A.set(500);
  B.set(500);
  EXPECT_TRUE(A.intersects(B));
  EXPECT_TRUE(A.contains(B));
  EXPECT_FALSE(B.contains(A));
  B.set(11);
  EXPECT_FALSE(A.contains(B));
  SparseBitVector C;
  C.set(999);
  EXPECT_FALSE(A.intersects(C));
  SparseBitVector Empty;
  EXPECT_FALSE(A.intersects(Empty));
  EXPECT_TRUE(A.contains(Empty));
}

TEST(SparseBitVector, EqualityAndCopies) {
  SparseBitVector A;
  for (uint32_t X : {7u, 70u, 700u, 7000u})
    A.set(X);
  SparseBitVector B(A);
  EXPECT_TRUE(A == B);
  B.reset(70);
  EXPECT_TRUE(A != B);
  B = A;
  EXPECT_TRUE(A == B);
  SparseBitVector C(std::move(B));
  EXPECT_TRUE(A == C);
  EXPECT_TRUE(B.empty()); // NOLINT: moved-from is specified empty here.
}

TEST(SparseBitVector, SelfAssignment) {
  SparseBitVector A;
  A.set(42);
  A = *&A;
  EXPECT_TRUE(A.test(42));
  EXPECT_EQ(A.count(), 1u);
}

TEST(SparseBitVector, MemoryAccounting) {
  uint64_t Before =
      MemTracker::instance().currentBytes(MemCategory::Bitmap);
  {
    SparseBitVector V;
    for (uint32_t I = 0; I != 1000; ++I)
      V.set(I * 1000);
    EXPECT_GT(MemTracker::instance().currentBytes(MemCategory::Bitmap),
              Before);
    EXPECT_GT(V.memoryBytes(), 0u);
  }
  EXPECT_EQ(MemTracker::instance().currentBytes(MemCategory::Bitmap),
            Before)
      << "destructor must return all bytes";
}

/// Property test: a SparseBitVector behaves exactly like std::set under a
/// random operation sequence (invariant 6 in DESIGN.md).
class SparseBitVectorProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(SparseBitVectorProperty, MatchesStdSet) {
  Rng R(GetParam());
  SparseBitVector V;
  std::set<uint32_t> Oracle;
  constexpr uint32_t Universe = 2000;

  for (int Step = 0; Step != 2000; ++Step) {
    uint32_t X = static_cast<uint32_t>(R.nextBelow(Universe));
    switch (R.nextBelow(6)) {
    case 0:
    case 1: // set (biased: sets are usually grown)
      EXPECT_EQ(V.set(X), Oracle.insert(X).second);
      break;
    case 2:
      EXPECT_EQ(V.reset(X), Oracle.erase(X) > 0);
      break;
    case 3:
      EXPECT_EQ(V.test(X), Oracle.count(X) > 0);
      break;
    case 4: { // bulk union with a small random set
      SparseBitVector Other;
      std::set<uint32_t> OtherOracle;
      for (int I = 0; I != 8; ++I) {
        uint32_t Y = static_cast<uint32_t>(R.nextBelow(Universe));
        Other.set(Y);
        OtherOracle.insert(Y);
      }
      size_t OldSize = Oracle.size();
      Oracle.insert(OtherOracle.begin(), OtherOracle.end());
      EXPECT_EQ(V.unionWith(Other), Oracle.size() != OldSize);
      break;
    }
    case 5:
      EXPECT_EQ(V.count(), Oracle.size());
      break;
    }
  }
  EXPECT_EQ(toVector(V),
            std::vector<uint32_t>(Oracle.begin(), Oracle.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseBitVectorProperty,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Property: bulk operations agree with element-wise set algebra.
class SparseBitVectorAlgebra : public testing::TestWithParam<uint64_t> {};

TEST_P(SparseBitVectorAlgebra, BulkOpsMatchSetAlgebra) {
  Rng R(GetParam() * 977);
  auto randomSet = [&](std::set<uint32_t> &S, SparseBitVector &V) {
    int N = 1 + static_cast<int>(R.nextBelow(60));
    for (int I = 0; I != N; ++I) {
      uint32_t X = static_cast<uint32_t>(R.nextBelow(500));
      S.insert(X);
      V.set(X);
    }
  };
  std::set<uint32_t> SA, SB;
  SparseBitVector A, B;
  randomSet(SA, A);
  randomSet(SB, B);

  // Union.
  {
    SparseBitVector U = A;
    U.unionWith(B);
    std::set<uint32_t> SU = SA;
    SU.insert(SB.begin(), SB.end());
    EXPECT_EQ(toVector(U), std::vector<uint32_t>(SU.begin(), SU.end()));
  }
  // Intersection.
  {
    SparseBitVector I = A;
    I.intersectWith(B);
    std::vector<uint32_t> SI;
    for (uint32_t X : SA)
      if (SB.count(X))
        SI.push_back(X);
    EXPECT_EQ(toVector(I), SI);
  }
  // Difference.
  {
    SparseBitVector D = A;
    D.subtract(B);
    std::vector<uint32_t> SD;
    for (uint32_t X : SA)
      if (!SB.count(X))
        SD.push_back(X);
    EXPECT_EQ(toVector(D), SD);
  }
  // unionWithMinus == union of (B - A-as-exclusion).
  {
    SparseBitVector M = A;
    M.unionWithMinus(B, A);
    SparseBitVector U = A;
    U.unionWith(B);
    EXPECT_TRUE(M == U) << "excluding existing bits can't change result";
  }
  // intersects/contains consistency.
  {
    SparseBitVector I = A;
    I.intersectWith(B);
    EXPECT_EQ(A.intersects(B), !I.empty());
    SparseBitVector U = A;
    bool Grew = U.unionWith(B);
    EXPECT_EQ(A.contains(B), !Grew) << "B ⊆ A iff A ∪ B == A";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseBitVectorAlgebra,
                         testing::Range<uint64_t>(1, 17));

// --- Fused kernel (unionWithVisitNew) ------------------------------------

TEST(SparseBitVector, UnionWithVisitNewVisitsExactlyTheNewBitsAscending) {
  // Alternating elements: A holds elements 0/2/4, B holds 1/3/5 plus a
  // partial overlap inside element 2, with bits on both 64-bit words and
  // the 127/128 boundaries.
  SparseBitVector A, B;
  for (uint32_t X : {0u, 127u, 300u, 310u, 600u})
    A.set(X);
  for (uint32_t X : {128u, 255u, 300u, 311u, 449u, 700u})
    B.set(X);
  SparseBitVector Expected = A;
  std::vector<uint32_t> ExpectedNew;
  B.forEachDiff(A, [&](uint32_t Bit) { ExpectedNew.push_back(Bit); });
  Expected.unionWith(B);

  std::vector<uint32_t> Seen;
  EXPECT_TRUE(A.unionWithVisitNew(B, [&](uint32_t Bit) { Seen.push_back(Bit); }));
  EXPECT_EQ(Seen, ExpectedNew) << "one merge pass must report B \\ A ascending";
  EXPECT_TRUE(A == Expected);

  // Re-union: nothing new, callback never fires.
  Seen.clear();
  EXPECT_FALSE(A.unionWithVisitNew(B, [&](uint32_t Bit) { Seen.push_back(Bit); }));
  EXPECT_TRUE(Seen.empty());

  // Self-union and empty RHS are no-ops that must not visit.
  EXPECT_FALSE(A.unionWithVisitNew(A, [&](uint32_t) { FAIL(); }));
  EXPECT_FALSE(A.unionWithVisitNew(SparseBitVector(),
                                   [&](uint32_t) { FAIL(); }));

  // Empty LHS: every RHS bit is new.
  SparseBitVector Fresh;
  Seen.clear();
  EXPECT_TRUE(Fresh.unionWithVisitNew(B,
                                      [&](uint32_t Bit) { Seen.push_back(Bit); }));
  EXPECT_EQ(Seen, toVector(B));
  EXPECT_TRUE(Fresh == B);
}

TEST(SparseBitVector, FusedKernelsMatchOracleRandomized) {
  for (uint64_t Seed = 1; Seed != 13; ++Seed) {
    Rng R(Seed * 31337);
    SparseBitVector A, B;
    std::set<uint32_t> SA, SB;
    // Clustered draws so element lists interleave adversarially: long
    // shared runs, single-bit elements, and full-word boundaries.
    uint32_t Base = 0;
    for (int I = 0; I != 300; ++I) {
      if (R.nextBelow(16) == 0)
        Base = static_cast<uint32_t>(R.nextBelow(1u << 20));
      uint32_t X = Base + static_cast<uint32_t>(R.nextBelow(260));
      if (R.nextBelow(2)) {
        A.set(X);
        SA.insert(X);
      } else {
        B.set(X);
        SB.insert(X);
      }
      if (R.nextBelow(4) == 0) { // Shared bits.
        A.set(X);
        SA.insert(X);
        B.set(X);
        SB.insert(X);
      }
    }
    // Oracle: union and new-bit list from std::set.
    std::set<uint32_t> SU = SA;
    SU.insert(SB.begin(), SB.end());
    std::vector<uint32_t> OracleNew;
    for (uint32_t X : SB)
      if (!SA.count(X))
        OracleNew.push_back(X);

    EXPECT_EQ(A == B, SA == SB) << "seed " << Seed;
    SparseBitVector U1 = A;
    EXPECT_EQ(U1.unionWith(B), !OracleNew.empty()) << "seed " << Seed;
    EXPECT_EQ(toVector(U1), std::vector<uint32_t>(SU.begin(), SU.end()))
        << "seed " << Seed;

    SparseBitVector U2 = A;
    std::vector<uint32_t> Seen;
    EXPECT_EQ(U2.unionWithVisitNew(B,
                                   [&](uint32_t Bit) { Seen.push_back(Bit); }),
              !OracleNew.empty())
        << "seed " << Seed;
    EXPECT_EQ(Seen, OracleNew) << "seed " << Seed;
    EXPECT_TRUE(U1 == U2) << "seed " << Seed;
    EXPECT_EQ(U1.contentHash(), U2.contentHash()) << "seed " << Seed;
  }
}

TEST(SparseBitVector, UnionWithDeltaAccumulatesExactlyTheNewBits) {
  // A and B share element 2 partially (one word each side of the 64-bit
  // split), and each owns elements the other lacks, including the 127/128
  // element boundary.
  SparseBitVector A, B;
  for (uint32_t X : {0u, 127u, 300u, 310u, 600u})
    A.set(X);
  for (uint32_t X : {128u, 255u, 300u, 311u, 449u, 700u})
    B.set(X);
  std::vector<uint32_t> ExpectedNew;
  B.forEachDiff(A, [&](uint32_t Bit) { ExpectedNew.push_back(Bit); });
  SparseBitVector Expected = A;
  Expected.unionWith(B);

  SparseBitVector Delta;
  EXPECT_TRUE(A.unionWithDelta(B, Delta));
  EXPECT_TRUE(A == Expected);
  EXPECT_EQ(toVector(Delta), ExpectedNew)
      << "delta must hold exactly B \\ A(before)";

  // Re-union: nothing new, delta untouched.
  EXPECT_FALSE(A.unionWithDelta(B, Delta));
  EXPECT_EQ(toVector(Delta), ExpectedNew);

  // Accumulation: a second source ORs its new bits on top of the
  // existing delta contents (including into an already-present element).
  SparseBitVector C;
  C.set(1);   // Element 0: A already has bit 0, delta gains 1.
  C.set(310); // Already in A: must NOT re-enter the delta.
  C.set(9000);
  EXPECT_TRUE(A.unionWithDelta(C, Delta));
  std::vector<uint32_t> ExpectedAccum = ExpectedNew;
  ExpectedAccum.push_back(1);
  ExpectedAccum.push_back(9000);
  std::sort(ExpectedAccum.begin(), ExpectedAccum.end());
  EXPECT_EQ(toVector(Delta), ExpectedAccum);

  // Self-union and empty RHS: no change, delta untouched.
  EXPECT_FALSE(A.unionWithDelta(A, Delta));
  EXPECT_FALSE(A.unionWithDelta(SparseBitVector(), Delta));
  EXPECT_EQ(toVector(Delta), ExpectedAccum);

  // Empty LHS: everything is new.
  SparseBitVector Fresh, FreshDelta;
  EXPECT_TRUE(Fresh.unionWithDelta(B, FreshDelta));
  EXPECT_TRUE(Fresh == B);
  EXPECT_TRUE(FreshDelta == B);
}

TEST(SparseBitVector, UnionWithDeltaMatchesOracleRandomized) {
  for (uint64_t Seed = 1; Seed != 13; ++Seed) {
    Rng R(Seed * 977);
    SparseBitVector A, B, Delta;
    std::set<uint32_t> SA, SB, SD;
    uint32_t Base = 0;
    for (int I = 0; I != 300; ++I) {
      if (R.nextBelow(16) == 0)
        Base = static_cast<uint32_t>(R.nextBelow(1u << 20));
      uint32_t X = Base + static_cast<uint32_t>(R.nextBelow(260));
      switch (R.nextBelow(4)) {
      case 0:
        A.set(X);
        SA.insert(X);
        break;
      case 1:
        B.set(X);
        SB.insert(X);
        break;
      case 2: // Shared bits.
        A.set(X);
        SA.insert(X);
        B.set(X);
        SB.insert(X);
        break;
      default: // Pre-existing delta contents that must survive the merge.
        Delta.set(X);
        SD.insert(X);
        break;
      }
    }
    // Oracle: destination becomes A ∪ B; delta gains B \ A.
    std::set<uint32_t> SU = SA;
    SU.insert(SB.begin(), SB.end());
    std::set<uint32_t> SDAfter = SD;
    bool OracleChanged = false;
    for (uint32_t X : SB)
      if (!SA.count(X)) {
        SDAfter.insert(X);
        OracleChanged = true;
      }

    EXPECT_EQ(A.unionWithDelta(B, Delta), OracleChanged) << "seed " << Seed;
    EXPECT_EQ(toVector(A), std::vector<uint32_t>(SU.begin(), SU.end()))
        << "seed " << Seed;
    EXPECT_EQ(toVector(Delta),
              std::vector<uint32_t>(SDAfter.begin(), SDAfter.end()))
        << "seed " << Seed;
  }
}

TEST(SparseBitVector, ContentHashAgreesWithEquality) {
  SparseBitVector A, B;
  for (uint32_t X : {5u, 64u, 129u, 4096u}) {
    A.set(X);
    B.set(X);
  }
  EXPECT_EQ(A.contentHash(), B.contentHash());
  B.set(130);
  EXPECT_NE(A.contentHash(), B.contentHash());
  B.reset(130);
  EXPECT_EQ(A.contentHash(), B.contentHash());
  EXPECT_EQ(SparseBitVector().contentHash(),
            SparseBitVector().contentHash());
}

// --- Arena-backed element allocation -------------------------------------

TEST(SparseBitVector, ArenaBoundSetsBehaveIdentically) {
  ElementArena Arena(SparseBitVector::elementBytes());
  SparseBitVector V;
  V.setArena(&Arena);
  SparseBitVector Plain;
  Rng R(99);
  for (int I = 0; I != 500; ++I) {
    uint32_t X = static_cast<uint32_t>(R.nextBelow(4096));
    V.set(X);
    Plain.set(X);
  }
  EXPECT_TRUE(V == Plain);
  EXPECT_GT(Arena.liveBlocks(), 0u);
  EXPECT_GE(Arena.reservedBytes(),
            Arena.liveBlocks() * SparseBitVector::elementBytes());
  V.clear();
  EXPECT_EQ(Arena.liveBlocks(), 0u) << "clear() returns blocks to the arena";
  // Freed blocks are recycled, not re-reserved.
  uint64_t Reserved = Arena.reservedBytes();
  V.set(7);
  V.set(700);
  EXPECT_EQ(Arena.reservedBytes(), Reserved);
}

TEST(SparseBitVector, CrossArenaMoveAssignCopies) {
  ElementArena A1(SparseBitVector::elementBytes());
  ElementArena A2(SparseBitVector::elementBytes());
  SparseBitVector X, Y;
  X.setArena(&A1);
  Y.setArena(&A2);
  for (uint32_t Bit : {1u, 200u, 4000u})
    X.set(Bit);
  SparseBitVector Expected = X;
  Y = std::move(X);
  EXPECT_TRUE(Y == Expected);
  EXPECT_TRUE(X.empty()); // NOLINT: moved-from is specified empty here.
  EXPECT_EQ(Y.arena(), &A2) << "cross-arena move must not migrate elements";
  // Same-arena move steals the list wholesale.
  SparseBitVector Z;
  Z.setArena(&A2);
  Z = std::move(Y);
  EXPECT_TRUE(Z == Expected);
  // Move construction transfers the arena binding with the elements.
  SparseBitVector W(std::move(Z));
  EXPECT_EQ(W.arena(), &A2);
  EXPECT_TRUE(W == Expected);
}

} // namespace
