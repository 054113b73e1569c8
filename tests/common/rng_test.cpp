#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/check.h"

namespace spb {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 500; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i)
    ++counts[rng.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(9);
  for (const int n : {0, 1, 2, 17, 100}) {
    auto p = rng.permutation(n);
    ASSERT_EQ(static_cast<int>(p.size()), n);
    std::sort(p.begin(), p.end());
    for (int i = 0; i < n; ++i) EXPECT_EQ(p[static_cast<std::size_t>(i)], i);
  }
}

TEST(Rng, SampleWithoutReplacementProperties) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(200));
    const int k = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(n) + 1));
    const auto sample = rng.sample_without_replacement(n, k);
    ASSERT_EQ(static_cast<int>(sample.size()), k);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    const std::set<std::int32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(static_cast<int>(unique.size()), k);
    for (const auto v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, n);
    }
  }
}

/// Floyd's algorithm with a linear search over the picks: the draws and
/// picks sample_without_replacement must reproduce.
std::vector<std::int32_t> reference_sample(Rng& rng, std::int32_t n,
                                           std::int32_t k) {
  std::vector<std::int32_t> out;
  for (std::int32_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(j) + 1));
    out.push_back(std::find(out.begin(), out.end(), t) == out.end() ? t : j);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Rng, SampleMatchesTheLinearSearchReference) {
  int cases = 0;
  for (const std::int32_t n : {0, 1, 2, 3, 7, 63, 64, 65, 130, 1000}) {
    for (const std::int32_t k : {0, 1, n / 3, n / 2, n - 1, n}) {
      if (k < 0 || k > n) continue;
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng fast(seed);
        Rng slow(seed);
        ASSERT_EQ(fast.sample_without_replacement(n, k),
                  reference_sample(slow, n, k))
            << "n=" << n << " k=" << k << " seed=" << seed;
        // Same draws: the generators leave the call in the same state.
        ASSERT_EQ(fast.next_u64(), slow.next_u64())
            << "n=" << n << " k=" << k << " seed=" << seed;
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 600);
}

TEST(Rng, SampleFullRangeIsEverything) {
  Rng rng(17);
  const auto sample = rng.sample_without_replacement(32, 32);
  std::vector<std::int32_t> want(32);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(sample, want);
}

TEST(Rng, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), CheckError);
  EXPECT_THROW(rng.next_in(3, 2), CheckError);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckError);
  EXPECT_THROW(rng.permutation(-1), CheckError);
}

}  // namespace
}  // namespace spb
