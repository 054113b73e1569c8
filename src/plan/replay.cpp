#include "plan/replay.h"

#include <algorithm>
#include <sstream>

namespace spb::plan {

ReplayStream::ReplayStream(int p, std::uint64_t seed) : rng_(seed) {
  constexpr int kPoolSize = 32;
  const int s_pool[] = {std::max(1, p / 8), std::max(1, p / 4),
                        std::max(1, (3 * p) / 8), std::max(1, p / 2)};
  const Bytes len_pool[] = {512, 1024, 6144, 32768};
  const auto& kinds = dist::all_kinds();
  Rng pool_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  pool_.resize(kPoolSize);
  for (ReplayRequest& t : pool_) {
    t.kind = kinds[pool_rng.next_below(kinds.size())];
    t.sources = s_pool[pool_rng.next_below(std::size(s_pool))];
    t.len = len_pool[pool_rng.next_below(std::size(len_pool))];
    t.dist_seed = 1 + pool_rng.next_below(4);
  }
}

ReplayRequest ReplayStream::next() {
  ReplayRequest r = pool_[rng_.next_below(pool_.size())];
  r.len += static_cast<Bytes>(
      rng_.next_below(static_cast<std::uint64_t>(r.len / 8 + 1)));
  return r;
}

std::string wire_line(const ReplayRequest& r) {
  std::ostringstream line;
  line << "{\"op\":\"plan\",\"dist\":\"" << dist::kind_name(r.kind)
       << "\",\"sources\":" << r.sources << ",\"len\":" << r.len
       << ",\"seed\":" << r.dist_seed << "}";
  return line.str();
}

}  // namespace spb::plan
