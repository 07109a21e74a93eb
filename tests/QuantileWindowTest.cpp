//===- QuantileWindowTest.cpp - Sliding-window quantile sketch ------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The QuantileWindow's accuracy and concurrency contracts: log-linear
/// buckets (3 sub-bucket bits) bound the relative error of any reported
/// quantile at 12.5%, verified against exact sorted percentiles on
/// randomized inputs; concurrent recording loses nothing, also while a
/// fresh slot is being claimed and cleared, and is TSan-clean;
/// and the LatencyTracker publishes its quantiles into the registry's
/// serve.latency.* gauges in class-major order.
///
//===----------------------------------------------------------------------===//

#include "obs/QuantileWindow.h"

#include "obs/MetricsRegistry.h"
#include "obs/Obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

using namespace ag;

namespace {

/// Exact quantile with the same rank convention the window uses
/// (rank = ceil(Q * N), 1-based).
uint64_t exactQuantile(std::vector<uint64_t> Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  uint64_t Rank = uint64_t(Q * double(Sorted.size()));
  if (Rank < 1)
    Rank = 1;
  if (Rank > Sorted.size())
    Rank = Sorted.size();
  return Sorted[size_t(Rank - 1)];
}

TEST(QuantileWindow, BucketUpperBoundsValueWithinRelativeError) {
  std::mt19937_64 Rng(0x5eed);
  for (int I = 0; I != 20000; ++I) {
    // Spread across the full magnitude range, not just small values.
    uint64_t V = Rng() >> (Rng() % 64);
    unsigned B = obs::QuantileWindow::bucketOf(V);
    ASSERT_LT(B, obs::QuantileWindow::NumBuckets);
    uint64_t Upper = obs::QuantileWindow::bucketUpper(B);
    ASSERT_GE(Upper, V) << "bucket upper bound must not undershoot";
    // Relative error bound: upper <= V * (1 + 2^-SubBits), i.e. 12.5%.
    ASSERT_LE(double(Upper), double(V) * 1.125 + 1.0) << "V=" << V;
    if (B + 1 < obs::QuantileWindow::NumBuckets) {
      ASSERT_LT(Upper, obs::QuantileWindow::bucketUpper(B + 1))
          << "bucket uppers must be strictly increasing";
    }
  }
}

TEST(QuantileWindow, RandomizedOracleMatchesExactPercentiles) {
  std::mt19937_64 Rng(0xab5c0de);
  // One huge slot so nothing rotates out mid-test.
  obs::QuantileWindow W(/*SlotNanos=*/uint64_t(1) << 62);
  for (int Trial = 0; Trial != 5; ++Trial) {
    W.reset();
    std::vector<uint64_t> Values;
    // Mix of distributions: uniform small, log-uniform large, constants.
    const size_t N = 4000;
    for (size_t I = 0; I != N; ++I) {
      uint64_t V;
      switch (Rng() % 3) {
      case 0:
        V = Rng() % 1000; // Fast requests, exact bucket range.
        break;
      case 1:
        V = (uint64_t(1) << (Rng() % 40)) + (Rng() % 1000); // Heavy tail.
        break;
      default:
        V = 42; // A spike of identical values.
        break;
      }
      Values.push_back(V);
      W.record(V);
    }
    EXPECT_EQ(W.count(), Values.size());
    std::sort(Values.begin(), Values.end());
    for (double Q : {0.50, 0.90, 0.99}) {
      uint64_t Exact = exactQuantile(Values, Q);
      uint64_t Approx = W.quantile(Q);
      // The sketch reports its bucket's upper bound, so it may only
      // overshoot, and by at most the bucket width (12.5% relative,
      // plus 1 for integer rounding at the small end).
      EXPECT_GE(Approx, Exact) << "q=" << Q;
      EXPECT_LE(double(Approx), double(Exact) * 1.13 + 1.0) << "q=" << Q;
    }
  }
}

TEST(QuantileWindow, EmptyWindowReportsZero) {
  obs::QuantileWindow W;
  EXPECT_EQ(W.count(), 0u);
  EXPECT_EQ(W.quantile(0.5), 0u);
  EXPECT_EQ(W.quantile(0.99), 0u);
}

TEST(QuantileWindow, ConcurrentRecordingLosesNothing) {
  obs::QuantileWindow W(/*SlotNanos=*/uint64_t(1) << 62);
  constexpr unsigned Threads = 4, PerThread = 20000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&W, T] {
      std::mt19937_64 Rng(T + 1);
      for (unsigned I = 0; I != PerThread; ++I)
        W.record(Rng() % 100000);
    });
  for (std::thread &Worker : Workers)
    Worker.join();
  // One giant slot: nothing can rotate out, so every record must count.
  EXPECT_EQ(W.count(), uint64_t(Threads) * PerThread);
  EXPECT_GT(W.quantile(0.99), 0u);
}

/// Every record that arrives while the first recorder is still clearing a
/// fresh slot must survive the clear. A fresh window makes all its slots
/// unclaimed, so each round here races Threads first records for the claim
/// of one slot; recording before the clear finished used to wipe samples.
TEST(QuantileWindow, RecordsDuringSlotClaimSurvive) {
  constexpr unsigned Threads = 4, PerThread = 32, Rounds = 400;
  std::unique_ptr<obs::QuantileWindow> W;
  std::barrier Sync(Threads + 1);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&] {
      for (unsigned R = 0; R != Rounds; ++R) {
        Sync.arrive_and_wait();
        for (unsigned I = 0; I != PerThread; ++I)
          W->record(I + 1);
        Sync.arrive_and_wait();
      }
    });
  unsigned LossyRounds = 0;
  for (unsigned R = 0; R != Rounds; ++R) {
    W = std::make_unique<obs::QuantileWindow>(uint64_t(1) << 62);
    Sync.arrive_and_wait();
    Sync.arrive_and_wait();
    LossyRounds += W->count() != uint64_t(Threads) * PerThread;
  }
  for (std::thread &Worker : Workers)
    Worker.join();
  EXPECT_EQ(LossyRounds, 0u) << "rounds of " << Rounds
                             << " that lost records to a slot clear";
}

TEST(QuantileWindow, LatencyTrackerPublishesClassedGauges) {
  obs::setMetricsEnabled(true);
  auto &Reg = obs::MetricsRegistry::instance();
  Reg.reset();
  auto &Tracker = obs::LatencyTracker::instance();
  Tracker.reset();
  for (uint64_t I = 1; I <= 100; ++I)
    Tracker.record(obs::CommandClass::Query, I);
  Tracker.record(obs::CommandClass::Admin, 7);
  Tracker.publishGauges();
  uint64_t P50 = Reg.gaugeValue(obs::Gauge::ServeLatencyP50Query);
  uint64_t P99 = Reg.gaugeValue(obs::Gauge::ServeLatencyP99Query);
  EXPECT_GE(P50, 50u);
  EXPECT_LE(double(P50), 50.0 * 1.13 + 1.0);
  EXPECT_GE(P99, 99u);
  EXPECT_LE(double(P99), 99.0 * 1.13 + 1.0);
  EXPECT_GE(P99, P50) << "quantiles must be monotone";
  EXPECT_GE(Reg.gaugeValue(obs::Gauge::ServeLatencyP50Admin), 7u);
  EXPECT_EQ(Reg.gaugeValue(obs::Gauge::ServeLatencyP50Mutate), 0u)
      << "no mutate-class requests were recorded";
  Tracker.reset();
  Reg.reset();
  obs::setMetricsEnabled(false);
}

} // namespace
