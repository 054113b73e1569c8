// Fixed-bucket latency histogram for the serve layer's per-request
// percentiles.  64 geometric buckets (half-octave resolution) spanning
// 0.25us to ~20 minutes; record() is two relaxed atomic increments and a
// running-maximum CAS.  The server gives every worker a histogram of its
// own, so those atomics never bounce a cache line between workers, and
// answers queries from the sum of the workers' snapshots.
//
// Percentiles are reported as the upper edge of the bucket holding the
// requested rank — a <= 41% overestimate by construction (sqrt(2) bucket
// ratio), which is the usual trade for a lock-free fixed-size histogram
// (HdrHistogram makes the same one with finer buckets).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace spb::serve {

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;
  /// Lower edge of bucket 0; bucket i spans [kBaseUs*2^(i/2),
  /// kBaseUs*2^((i+1)/2)), with bucket 0 absorbing everything below.
  static constexpr double kBaseUs = 0.25;

  void record(double latency_us);

  /// Immutable counter snapshot for consistent multi-percentile queries.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total = 0;
    double max_us = 0;

    /// Upper bucket edge holding the p-th percentile (p in (0, 100]);
    /// 0 when the histogram is empty.  Clamped to max_us so the tail
    /// bucket's edge never overstates an observed maximum.
    double percentile_us(double p) const;

    /// Adds another snapshot's samples: the sum answers exactly as one
    /// histogram fed both sets of samples would.
    Snapshot& operator+=(const Snapshot& other);
  };
  Snapshot snapshot() const;

  std::uint64_t count() const {
    return total_.load(std::memory_order_relaxed);
  }
  void reset();

  /// Bucket index for a latency (exposed for the unit tests).
  static int bucket_of(double latency_us);
  /// Upper edge of a bucket, microseconds.
  static double bucket_upper_us(int bucket);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> total_{0};
  /// Exact observed maximum, CAS-maintained on the raw double bits.
  std::atomic<std::uint64_t> max_bits_{0};
};

}  // namespace spb::serve
