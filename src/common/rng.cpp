#include "common/rng.h"

#include <algorithm>
#include <numeric>

namespace spb {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  SPB_REQUIRE(bound > 0, "next_below needs a positive bound");
  // Rejection sampling on the top of the range to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % bound;
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  SPB_REQUIRE(lo <= hi, "next_in needs lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::vector<std::int32_t> Rng::permutation(std::int32_t n) {
  SPB_REQUIRE(n >= 0, "permutation size must be non-negative");
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  shuffle(v);
  return v;
}

std::vector<std::int32_t> Rng::sample_without_replacement(std::int32_t n,
                                                          std::int32_t k) {
  SPB_REQUIRE(0 <= k && k <= n, "sample needs 0 <= k <= n");
  // Floyd's algorithm: k iterations, the picks marked in an n-bit table.
  std::vector<std::int32_t> out;
  out.reserve(static_cast<std::size_t>(k));
  std::vector<std::uint64_t> taken((static_cast<std::size_t>(n) + 63) / 64);
  const auto word = [&taken](std::int32_t v) -> std::uint64_t& {
    return taken[static_cast<std::size_t>(v) / 64];
  };
  const auto bit = [](std::int32_t v) { return std::uint64_t{1} << (v % 64); };
  for (std::int32_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::int32_t>(next_below(
        static_cast<std::uint64_t>(j) + 1));
    // Every earlier pick is below j, so j is free whenever t is taken.
    const std::int32_t pick = (word(t) & bit(t)) != 0 ? j : t;
    word(pick) |= bit(pick);
    out.push_back(pick);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace spb
