#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // The epsilon absorbs binary rounding of q (99.9% of 10000 is rank 9990).
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) / 100.0 - 1e-7));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = percentile(samples, 50);
  s.p99 = percentile(samples, 99);
  s.tail = s.p50;
  for (const double q : {90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(s.n, q) < 10) break;
    s.tail_q = q;
    s.tail = percentile(samples, q);
  }
  return s;
}

std::string Summary::to_string(const char* unit) const {
  char buf[160];
  if (tail_q > 0)
    std::snprintf(buf, sizeof(buf), "p50 %.3f %s / p%g %.3f %s (n=%zu)", p50,
                  unit, tail_q, tail, unit, n);
  else
    std::snprintf(buf, sizeof(buf), "p50 %.3f %s (n=%zu, too few for a tail)",
                  p50, unit, n);
  return buf;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile(samples, 50);
}

Segmented segmented(const std::vector<double>& samples,
                    std::size_t pass_size) {
  constexpr std::size_t kMinSegment = 1000;
  const std::size_t passes = (kMinSegment + pass_size - 1) / pass_size;
  const std::size_t size = passes * pass_size;
  const std::size_t count = samples.size() / size;
  Segmented out;
  if (count < 2) {
    const Summary all = summarize(samples);
    return {all.p50, all.p99, 1};
  }
  std::vector<double> p50s, p99s;
  for (std::size_t k = 0; k < count; ++k) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(k * size);
    // The last segment takes the remainder.
    const auto last = k + 1 == count ? samples.end()
                                     : first + static_cast<std::ptrdiff_t>(size);
    const Summary s = summarize(std::vector<double>(first, last));
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
  }
  out.p50 = median(p50s);
  out.p99 = median(p99s);
  out.segments = count;
  return out;
}

BestOf best_of_passes(const std::vector<double>& samples_us,
                      const std::vector<std::size_t>& order) {
  std::vector<double> best(order.size(), 1e300);
  for (std::size_t k = 0; k < samples_us.size(); ++k) {
    double& b = best[order[k % order.size()]];
    b = std::min(b, samples_us[k]);
  }
  double total_us = 0;
  for (const double b : best) total_us += b;
  return {static_cast<double>(order.size()) * 1e6 / total_us, median(best)};
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

void Digest::add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

}  // namespace perfbench
