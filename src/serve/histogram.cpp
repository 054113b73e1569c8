#include "serve/histogram.h"

#include <bit>
#include <cmath>

namespace spb::serve {

int LatencyHistogram::bucket_of(double latency_us) {
  if (!(latency_us > kBaseUs)) return 0;
  // Half-octave index: two buckets per doubling.
  const int idx =
      static_cast<int>(std::floor(2.0 * std::log2(latency_us / kBaseUs)));
  return idx >= kBuckets ? kBuckets - 1 : idx;
}

double LatencyHistogram::bucket_upper_us(int bucket) {
  return kBaseUs * std::exp2(0.5 * (bucket + 1));
}

void LatencyHistogram::record(double latency_us) {
  // Normalize to strictly non-negative, non-NaN values.  The old clamp
  // (`< 0`) let -0.0 through; its bit pattern (0x8000...) is the *largest*
  // unsigned value, so a -0.0 sample would wedge a bit-pattern-compared
  // maximum at "zero" forever.  The comparison below is done on doubles,
  // so -0.0 is only a correctness hazard for the stored initial state —
  // but normalizing keeps every stored pattern canonical and the invariant
  // trivially checkable.
  if (!(latency_us > 0)) latency_us = 0;
  buckets_[static_cast<std::size_t>(bucket_of(latency_us))].fetch_add(
      1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  // Lock-free running maximum.  Ordering argument: the CAS loop compares
  // *as doubles* (never as bit patterns) and only ever replaces a strictly
  // smaller value.  Every stored pattern is a normalized non-negative
  // double (+0.0 initial state, reset, and the clamp above), so there is
  // no -0.0/NaN pattern that could mis-order.  On CAS failure `seen` is
  // reloaded, so the loop terminates as soon as some thread has published
  // a value >= ours; relaxed ordering suffices because the histogram
  // promises only that max >= every recorded sample once the recording
  // threads are quiescent (ServeStats uses its own fence for that).
  std::uint64_t seen = max_bits_.load(std::memory_order_relaxed);
  const std::uint64_t mine = std::bit_cast<std::uint64_t>(latency_us);
  while (std::bit_cast<double>(seen) < latency_us &&
         !max_bits_.compare_exchange_weak(seen, mine,
                                          std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot snap;
  for (int i = 0; i < kBuckets; ++i) {
    snap.counts[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    snap.total += snap.counts[static_cast<std::size_t>(i)];
  }
  snap.max_us =
      std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  return snap;
}

double LatencyHistogram::Snapshot::percentile_us(double p) const {
  if (total == 0) return 0;
  if (p > 100) p = 100;
  if (p <= 0) p = 0.0001;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[static_cast<std::size_t>(i)];
    if (seen >= rank) {
      const double edge = bucket_upper_us(i);
      return edge < max_us ? edge : max_us;
    }
  }
  return max_us;
}

LatencyHistogram::Snapshot& LatencyHistogram::Snapshot::operator+=(
    const Snapshot& other) {
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  total += other.total;
  if (other.max_us > max_us) max_us = other.max_us;
  return *this;
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  max_bits_.store(0, std::memory_order_relaxed);
}

}  // namespace spb::serve
