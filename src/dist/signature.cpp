#include "dist/signature.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace spb::dist {

std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t value) {
  std::uint64_t state = seed ^ (value * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

std::uint64_t source_multiset_hash(std::span<const Rank> sources) {
  if (!std::is_sorted(sources.begin(), sources.end())) {
    std::vector<Rank> sorted(sources.begin(), sources.end());
    std::sort(sorted.begin(), sorted.end());
    return source_multiset_hash(sorted);
  }
  // Non-zero start so the empty multiset does not collide with {0}.
  std::uint64_t h = 0x5b7c6a4d3e2f1908ULL;
  h = hash_mix(h, static_cast<std::uint64_t>(sources.size()));
  for (const Rank r : sources)
    h = hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)));
  return h;
}

}  // namespace spb::dist
