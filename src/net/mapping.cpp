#include "net/mapping.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace spb::net {

RankMapping::RankMapping(std::vector<NodeId> table) : table_(std::move(table)) {
  // One flag per node id up to the largest: node ids are dense (a
  // topology's node count bounds them), so this beats hashing p ids.
  const NodeId top = *std::max_element(table_.begin(), table_.end());
  std::vector<char> seen(top < 0 ? 0 : static_cast<std::size_t>(top) + 1, 0);
  for (const NodeId n : table_) {
    SPB_REQUIRE(n >= 0, "mapping contains a negative node id");
    char& used = seen[static_cast<std::size_t>(n)];
    SPB_REQUIRE(used == 0,
                "mapping is not injective: node " << n << " used twice");
    used = 1;
  }
}

RankMapping RankMapping::identity(int p) {
  SPB_REQUIRE(p >= 1, "mapping needs at least one rank");
  std::vector<NodeId> t(static_cast<std::size_t>(p));
  std::iota(t.begin(), t.end(), 0);
  return RankMapping(std::move(t));
}

RankMapping RankMapping::random(int p, int nodes, std::uint64_t seed) {
  SPB_REQUIRE(p >= 1 && p <= nodes,
              "cannot place " << p << " ranks on " << nodes << " nodes");
  Rng rng(seed);
  // Choose which nodes are occupied, then shuffle the assignment so both
  // the node subset and the rank order are randomized.
  std::vector<NodeId> chosen = rng.sample_without_replacement(nodes, p);
  rng.shuffle(chosen);
  return RankMapping(std::move(chosen));
}

RankMapping RankMapping::from_table(std::vector<NodeId> table) {
  SPB_REQUIRE(!table.empty(), "mapping table must not be empty");
  return RankMapping(std::move(table));
}

NodeId RankMapping::node_of(Rank r) const {
  SPB_REQUIRE(r >= 0 && r < rank_count(), "rank " << r << " out of range");
  return table_[static_cast<std::size_t>(r)];
}

}  // namespace spb::net
