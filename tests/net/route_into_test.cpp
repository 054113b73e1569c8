// Topology::route_into walks node ids into a caller-owned buffer.  For every
// pair on every family it must equal route() while one dirty buffer is
// reused, walk the dimensions in order (route lowest-first, alt_route the
// reverse; y_first meshes the other way round) moving each dimension one
// way only, and a warm buffer must never reallocate.  Connectivity and
// minimal length are route_properties_test's.
#include <gtest/gtest.h>

#include <vector>

#include "net/topology.h"

namespace spb::net {
namespace {

/// `ordered`: mesh/torus slot encoding, slots 2k and 2k + 1 = +/- dim k.
void check_all_pairs(const Topology& t, bool ordered, bool y_first = false) {
  std::vector<LinkId> buf{-1, -2, -3};  // dirty: route_into must clear it
  const int slots = t.slots_per_node();
  for (NodeId a = 0; a < t.node_count(); ++a)
    for (NodeId b = 0; b < t.node_count(); ++b) {
      t.route_into(a, b, buf);
      ASSERT_EQ(buf, t.route(a, b)) << t.name() << " " << a << "->" << b;
      ASSERT_EQ(static_cast<int>(buf.size()), t.hops(a, b)) << t.name();
      if (!ordered) continue;
      for (const bool alt : {false, true}) {
        const std::vector<LinkId> path = alt ? t.alt_route(a, b) : buf;
        for (std::size_t i = 1; i < path.size(); ++i) {
          const int prev = path[i - 1] % slots;
          const int cur = path[i] % slots;
          const bool descending = alt != y_first;
          ASSERT_TRUE(descending ? cur / 2 <= prev / 2 : cur / 2 >= prev / 2)
              << t.name() << " " << a << "->" << b << (alt ? " alt" : "");
          ASSERT_TRUE(cur / 2 != prev / 2 || cur == prev) << "direction flip";
        }
      }
    }
}

TEST(RouteInto, Mesh2DAllPairs) {
  check_all_pairs(Mesh2D(4, 6), true);
  check_all_pairs(Mesh2D(4, 6, /*y_first=*/true), true, /*y_first=*/true);
  check_all_pairs(Mesh2D(1, 5), true);
  check_all_pairs(Mesh2D(5, 1, /*y_first=*/true), true, /*y_first=*/true);
}

TEST(RouteInto, Torus3DAllPairs) {
  check_all_pairs(Torus3D(3, 4, 2), true);
  check_all_pairs(Torus3D(4, 4, 4), true);
}

TEST(RouteInto, TorusNDWithSizeOneAndTwoDimensions) {
  for (const std::vector<int>& dims : std::vector<std::vector<int>>{
           {1}, {2}, {2, 2}, {1, 2, 3}, {2, 1, 2, 2}, {5, 1}, {3, 2, 1, 4}})
    check_all_pairs(TorusND(dims), true);
}

TEST(RouteInto, HypercubeAllPairs) { check_all_pairs(Hypercube(5), false); }

TEST(RouteInto, LinearArrayAllPairs) { check_all_pairs(LinearArray(7), true); }

TEST(RouteInto, ClusterAllPairs) {
  check_all_pairs(Cluster(6, 3), false);
  check_all_pairs(Cluster(5, 1), false);
  check_all_pairs(Cluster(1, 4), false);
}

TEST(RouteInto, SelfRouteIsEmpty) {
  const Mesh2D mesh(3, 3);
  const TorusND torus({2, 3, 1});
  const Hypercube cube(3);
  const Cluster cluster(4, 2);
  const LinearArray line(4);
  for (const Topology* t : std::vector<const Topology*>{
           &mesh, &torus, &cube, &cluster, &line}) {
    std::vector<LinkId> buf;
    t->route_into(0, t->node_count() - 1, buf);
    EXPECT_FALSE(buf.empty()) << t->name();
    t->route_into(1, 1, buf);
    EXPECT_TRUE(buf.empty()) << t->name();
  }
}

TEST(RouteInto, WarmBufferKeepsItsCapacity) {
  const Torus3D t3d(8, 8, 8);
  std::vector<LinkId> buf;
  t3d.route_into(0, t3d.node_at({4, 4, 4}), buf);  // a diameter route
  ASSERT_EQ(buf.size(), 12u);
  const std::size_t capacity = buf.capacity();
  const LinkId* storage = buf.data();
  for (NodeId a = 0; a < t3d.node_count(); a += 7)
    for (NodeId b = 0; b < t3d.node_count(); b += 5) {
      t3d.route_into(a, b, buf);
      ASSERT_EQ(buf.capacity(), capacity) << a << "->" << b;
      ASSERT_EQ(buf.data(), storage) << a << "->" << b;
    }
}

}  // namespace
}  // namespace spb::net
