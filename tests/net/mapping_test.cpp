#include "net/mapping.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/check.h"

namespace spb::net {
namespace {

TEST(Mapping, IdentityMapsRankToSameNode) {
  const RankMapping m = RankMapping::identity(16);
  EXPECT_EQ(m.rank_count(), 16);
  for (Rank r = 0; r < 16; ++r) EXPECT_EQ(m.node_of(r), r);
}

TEST(Mapping, RandomIsInjectiveAndInRange) {
  const RankMapping m = RankMapping::random(128, 512, 7);
  EXPECT_EQ(m.rank_count(), 128);
  std::set<NodeId> seen;
  for (Rank r = 0; r < 128; ++r) {
    const NodeId n = m.node_of(r);
    EXPECT_GE(n, 0);
    EXPECT_LT(n, 512);
    EXPECT_TRUE(seen.insert(n).second);
  }
}

TEST(Mapping, RandomIsSeedDeterministic) {
  const RankMapping a = RankMapping::random(64, 512, 42);
  const RankMapping b = RankMapping::random(64, 512, 42);
  const RankMapping c = RankMapping::random(64, 512, 43);
  EXPECT_EQ(a.table(), b.table());
  EXPECT_NE(a.table(), c.table());
}

TEST(Mapping, RandomActuallyScatters) {
  // The T3D point: logical neighbours are not physical neighbours.  With
  // 128 ranks on 512 nodes, consecutive ranks mapped to consecutive nodes
  // should be rare.
  const RankMapping m = RankMapping::random(128, 512, 1);
  int adjacent = 0;
  for (Rank r = 0; r + 1 < 128; ++r)
    if (std::abs(m.node_of(r) - m.node_of(r + 1)) == 1) ++adjacent;
  EXPECT_LT(adjacent, 8);
}

TEST(Mapping, FullOccupancyRandomIsAPermutation) {
  const RankMapping m = RankMapping::random(32, 32, 5);
  std::set<NodeId> seen;
  for (Rank r = 0; r < 32; ++r) seen.insert(m.node_of(r));
  EXPECT_EQ(seen.size(), 32u);
}

TEST(Mapping, FromTableValidates) {
  const RankMapping m = RankMapping::from_table({3, 1, 4});
  EXPECT_EQ(m.node_of(0), 3);
  EXPECT_EQ(m.node_of(2), 4);
  EXPECT_THROW(RankMapping::from_table({1, 1}), CheckError);   // duplicate
  EXPECT_THROW(RankMapping::from_table({0, -2}), CheckError);  // negative
  EXPECT_THROW(RankMapping::from_table({}), CheckError);       // empty
}

TEST(Mapping, DuplicateNodeMessageNamesTheFirstRepeat) {
  // In table order, node 2 is the first to repeat (before node 0 does).
  try {
    static_cast<void>(RankMapping::from_table({2, 0, 2, 0}));
    FAIL() << "duplicate nodes accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "mapping is not injective: node 2 used twice"),
              std::string::npos)
        << e.what();
  }
}

TEST(Mapping, RejectsBadSizes) {
  EXPECT_THROW(RankMapping::random(10, 5, 1), CheckError);
  EXPECT_THROW(RankMapping::identity(0), CheckError);
  const RankMapping m = RankMapping::identity(4);
  EXPECT_THROW(m.node_of(4), CheckError);
  EXPECT_THROW(m.node_of(-1), CheckError);
}

}  // namespace
}  // namespace spb::net
