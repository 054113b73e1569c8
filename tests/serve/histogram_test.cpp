// LatencyHistogram: bucket geometry, percentile ordering and clamping,
// reset, lossless counting under concurrent recording, and merged
// per-worker snapshots.
#include "serve/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace spb::serve {
namespace {

TEST(LatencyHistogram, BucketEdgesAreMonotone) {
  for (int b = 1; b < LatencyHistogram::kBuckets; ++b)
    EXPECT_LT(LatencyHistogram::bucket_upper_us(b - 1),
              LatencyHistogram::bucket_upper_us(b))
        << "bucket " << b;
}

TEST(LatencyHistogram, BucketOfRespectsEdges) {
  for (int b = 0; b < LatencyHistogram::kBuckets - 1; ++b) {
    const double upper = LatencyHistogram::bucket_upper_us(b);
    // Just under the edge stays in the bucket; the edge itself moves on.
    EXPECT_EQ(LatencyHistogram::bucket_of(upper * 0.999), b);
    EXPECT_EQ(LatencyHistogram::bucket_of(upper * 1.001), b + 1);
  }
  // The extremes saturate instead of indexing out of range.
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(-5.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(1e18),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, EmptySnapshotIsAllZero) {
  const LatencyHistogram h;
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.max_us, 0.0);
  EXPECT_EQ(s.percentile_us(50), 0.0);
  EXPECT_EQ(s.percentile_us(99), 0.0);
}

TEST(LatencyHistogram, PercentilesAreOrderedAndClamped) {
  LatencyHistogram h;
  // 90 fast requests, 9 slower, 1 slow outlier.
  for (int i = 0; i < 90; ++i) h.record(10.0);
  for (int i = 0; i < 9; ++i) h.record(500.0);
  h.record(40000.0);

  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, 100u);
  EXPECT_EQ(s.max_us, 40000.0);

  const double p50 = s.percentile_us(50);
  const double p95 = s.percentile_us(95);
  const double p99 = s.percentile_us(99);
  const double p100 = s.percentile_us(100);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, p100);
  // The bucket upper edge overestimates by at most the sqrt(2) ratio.
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 10.0 * 1.4143);
  EXPECT_GE(p95, 500.0);
  EXPECT_LE(p95, 500.0 * 1.4143);
  // The tail percentile is clamped to the observed maximum, not the
  // (larger) edge of the bucket the outlier landed in.
  EXPECT_EQ(p100, 40000.0);
}

TEST(LatencyHistogram, ResetClearsEverything) {
  LatencyHistogram h;
  h.record(100.0);
  h.record(200.0);
  ASSERT_EQ(h.count(), 2u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.max_us, 0.0);
}

TEST(LatencyHistogram, NegativeZeroDoesNotWedgeTheMaximum) {
  // Regression: record() used to clamp with `< 0`, which -0.0 passes; its
  // bit pattern (sign bit set) is the largest unsigned value, so a -0.0
  // sample stored early would win every at-a-glance bit comparison and a
  // later real maximum could be lost if any comparison fell back to bits.
  // The fix normalizes every non-positive (and NaN) sample to +0.0.
  LatencyHistogram h;
  h.record(-0.0);
  EXPECT_EQ(h.snapshot().max_us, 0.0);
  EXPECT_FALSE(std::signbit(h.snapshot().max_us));
  h.record(42.0);
  EXPECT_EQ(h.snapshot().max_us, 42.0);
  h.record(-0.0);  // a late -0.0 must not replace the maximum either
  EXPECT_EQ(h.snapshot().max_us, 42.0);
}

TEST(LatencyHistogram, ConcurrentMaxIsTheTrueMax) {
  // Hammer the lock-free running maximum from many threads, with a known
  // per-thread supremum, plenty of near-max contention and -0.0 samples
  // mixed in; the reported max must equal the true max exactly.
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  constexpr double kTrueMax = 9999.0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 997 == 0) {
          h.record(-0.0);
        } else {
          // Values ramp toward the shared maximum so every thread keeps
          // contending on the CAS right up to the end; only thread 0 ever
          // records kTrueMax itself (on its last iteration).
          const double frac =
              static_cast<double>(i) / static_cast<double>(kPerThread - 1);
          const double ceiling = t == 0 ? kTrueMax : kTrueMax - 1.0;
          h.record(frac * ceiling);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.max_us, kTrueMax);
}

TEST(LatencyHistogram, ConcurrentRecordLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<double>(1 + (t * kPerThread + i) % 1000));
    });
  }
  for (std::thread& t : threads) t.join();

  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t sum = 0;
  for (const std::uint64_t c : s.counts) sum += c;
  EXPECT_EQ(sum, s.total);
  EXPECT_EQ(s.max_us, 1000.0);
}

TEST(LatencyHistogram, MergedSnapshotsEqualOneHistogram) {
  // The server keeps one histogram per worker and sums their snapshots:
  // the sum must answer exactly as one histogram fed every sample.
  LatencyHistogram one;
  LatencyHistogram parts[3];
  for (int i = 0; i < 3000; ++i) {
    // Spread over many buckets, with the maximum in the middle part and
    // non-positive samples mixed in.
    const double us = i % 101 == 0 ? -1.0 : 0.1 * (1 + (i * 7919) % 40000);
    one.record(us);
    parts[i % 3].record(us);
  }
  parts[1].record(123456.0);
  one.record(123456.0);

  LatencyHistogram::Snapshot merged;
  for (const LatencyHistogram& h : parts) merged += h.snapshot();
  const LatencyHistogram::Snapshot want = one.snapshot();
  EXPECT_EQ(merged.counts, want.counts);
  EXPECT_EQ(merged.total, want.total);
  EXPECT_EQ(merged.max_us, want.max_us);
  for (const double p : {0.5, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(merged.percentile_us(p), want.percentile_us(p)) << "p" << p;

  // An empty part changes nothing.
  merged += LatencyHistogram().snapshot();
  EXPECT_EQ(merged.counts, want.counts);
  EXPECT_EQ(merged.max_us, want.max_us);
}

}  // namespace
}  // namespace spb::serve
