// Property tests for the k-ary n-cube family: exhaustive over small shapes
// and seeded-random over large ones, the dimension-ordered shortest-wrap
// router must produce routes of exactly hops(a,b) links, every LinkId must
// stay inside link_space(), coordinates must round-trip, and no
// per-dimension move may exceed half the dimension (shortest wrap).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"

namespace spb::net {
namespace {

void check_pair(const TorusND& t, NodeId a, NodeId b) {
  const Coord ca = t.coord(a);
  const Coord cb = t.coord(b);
  const std::vector<LinkId> primary = t.route(a, b);
  const std::vector<LinkId> alt = t.alt_route(a, b);
  for (const std::vector<LinkId>* path : {&primary, &alt}) {
    ASSERT_EQ(static_cast<int>(path->size()), t.hops(a, b))
        << t.name() << " " << a << "->" << b;
    for (const LinkId l : *path) {
      ASSERT_GE(l, 0) << t.name();
      ASSERT_LT(l, t.link_space()) << t.name();
      ASSERT_LT(l % t.slots_per_node(), 2 * t.ndims())
          << t.name() << ": slot beyond the dimension channels";
    }
  }
  // Shortest wrap: the move along each dimension is at most half its size.
  for (int k = 0; k < t.ndims(); ++k) {
    const int d = TorusND::torus_delta(ca[k], cb[k], t.dim(k));
    EXPECT_LE(std::abs(d), t.dim(k) / 2) << t.name() << " dim " << k;
    if (2 * std::abs(d) == t.dim(k)) {
      EXPECT_GT(d, 0) << t.name() << ": ties must break positive";
    }
  }
}

TEST(TorusNDProperty, ExhaustiveSmallShapes) {
  const std::vector<std::vector<int>> shapes = {
      {1},    {2},       {5},          {1, 4},      {2, 3},
      {4, 4}, {2, 3, 4}, {3, 3, 3},    {1, 2, 3},   {2, 2, 2, 2},
      {4, 1, 3, 2},      {2, 2, 2, 2, 2},
  };
  for (const auto& dims : shapes) {
    const TorusND t(dims);
    for (NodeId n = 0; n < t.node_count(); ++n)
      ASSERT_EQ(t.node_at(t.coord(n)), n) << t.name();
    for (NodeId a = 0; a < t.node_count(); ++a)
      for (NodeId b = 0; b < t.node_count(); ++b) check_pair(t, a, b);
  }
}

TEST(TorusNDProperty, SeededRandomLargeShapes) {
  const std::vector<std::vector<int>> shapes = {
      {8, 8, 16}, {4, 4, 4, 4}, {16, 16, 4}, {3, 5, 7, 2}, {32, 32},
  };
  std::uint64_t seed = 20260809;
  for (const auto& dims : shapes) {
    const TorusND t(dims);
    Rng rng(seed++);
    const auto n = static_cast<std::uint64_t>(t.node_count());
    for (int k = 0; k < 500; ++k) {
      const auto a = static_cast<NodeId>(rng.next_below(n));
      const auto b = static_cast<NodeId>(rng.next_below(n));
      ASSERT_EQ(t.node_at(t.coord(a)), a) << t.name();
      check_pair(t, a, b);
    }
  }
}

TEST(TorusNDProperty, RoutesNeverExceedTheDiameter) {
  const TorusND t({8, 8, 16});
  const int diameter = 8 / 2 + 8 / 2 + 16 / 2;
  Rng rng(7);
  const auto n = static_cast<std::uint64_t>(t.node_count());
  for (int k = 0; k < 500; ++k) {
    const auto a = static_cast<NodeId>(rng.next_below(n));
    const auto b = static_cast<NodeId>(rng.next_below(n));
    EXPECT_LE(t.hops(a, b), diameter);
  }
}

}  // namespace
}  // namespace spb::net
