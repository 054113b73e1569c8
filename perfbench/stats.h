// Sample statistics for the benchmark's timings.
//
// Every timing is reported as a median plus the highest percentile that
// still has at least ten samples beyond it, together with the sample
// count; percentiles use the nearest-rank definition on the sorted
// samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of ascending `sorted` (q in (0, 100]); 0 when
/// empty.
double percentile(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  /// Nearest-rank 99th percentile, whether or not ten samples lie beyond.
  double p99 = 0;
  /// The highest of 90, 99, 99.9, 99.99 with at least ten samples beyond
  /// it; 0 when n is too small for any of them (tail then equals p50).
  double tail_q = 0;
  double tail = 0;

  /// "p50 12.3 / p99 45.6 (n=1234)"
  std::string to_string(const char* unit) const;
};

Summary summarize(std::vector<double> samples);

double median(std::vector<double> samples);

/// p50 and p99 that a short burst of host noise cannot move much: the
/// samples (in the order taken) are cut into segments of whole passes of
/// `pass_size` samples, each segment at least 1000 samples when the run
/// has two such segments, and each percentile is the median of the
/// segments' percentiles.  A run too short for two segments is one.
struct Segmented {
  double p50 = 0;
  double p99 = 0;
  std::size_t segments = 0;
};
Segmented segmented(const std::vector<double>& samples, std::size_t pass_size);

/// Throughput and median from repeated passes over the same jobs, where
/// `samples_us` holds whole passes and sample k times job order[k % n].
/// Host noise only ever slows a job down, so each job's best (lowest) time
/// over the passes is its steadiest estimate: jobs_per_s is n over the sum
/// of the best times, p50_us the median best time.
struct BestOf {
  double jobs_per_s = 0;
  double p50_us = 0;
};
BestOf best_of_passes(const std::vector<double>& samples_us,
                      const std::vector<std::size_t>& order);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// FNV-1a accumulator for output digests.
class Digest {
 public:
  void add(const void* data, std::size_t bytes);
  void add_u64(std::uint64_t v) { add(&v, sizeof(v)); }
  void add_double(double v) { add(&v, sizeof(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
