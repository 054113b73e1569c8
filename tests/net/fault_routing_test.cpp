// NetworkModel routing under fault plans: the alternate dimension order,
// the degraded-link detour that must actually move traffic off the bad
// link, and degradation windows that flush and rebuild the detour memo.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.h"
#include "fault/fault.h"
#include "net/network.h"
#include "net/topology.h"

namespace spb::net {
namespace {

TEST(AltRoute, OppositeDimensionOrderOnTheMesh) {
  const Mesh2D mesh(4, 6);
  for (NodeId a = 0; a < mesh.node_count(); ++a)
    for (NodeId b = 0; b < mesh.node_count(); ++b) {
      const auto primary = mesh.route(a, b);
      const auto alt = mesh.alt_route(a, b);
      ASSERT_EQ(alt.size(), primary.size()) << a << "->" << b;
      const Coord ca = mesh.coord(a), cb = mesh.coord(b);
      if (ca.x() != cb.x() && ca.y() != cb.y()) {
        // Both dimensions move: YX and XY take different corners.
        EXPECT_NE(alt, primary) << a << "->" << b;
      } else {
        // Aligned pairs have a single dimension-ordered route.
        EXPECT_EQ(alt, primary) << a << "->" << b;
      }
    }
}

TEST(AltRoute, OppositeDimensionOrderOnTheTorus) {
  const Torus3D torus(3, 3, 2);
  int diverging = 0;
  for (NodeId a = 0; a < torus.node_count(); ++a)
    for (NodeId b = 0; b < torus.node_count(); ++b) {
      const auto primary = torus.route(a, b);
      const auto alt = torus.alt_route(a, b);
      ASSERT_EQ(alt.size(), primary.size()) << a << "->" << b;
      if (alt != primary) ++diverging;
    }
  EXPECT_GT(diverging, 0) << "ZYX order never differed from XYZ";
}

/// A 4x4 mesh model with the first hop of 0 -> 5 degraded; the YX
/// alternative avoids it.
struct DetourFixture {
  std::shared_ptr<const Mesh2D> mesh = std::make_shared<const Mesh2D>(4, 4);
  NodeId src = 0, dst = 5;  // (0,0) -> (1,1): XY and YX differ
  LinkId bad;

  fault::FaultPlanPtr plan(const char* spec_text) const {
    const fault::FaultSpec spec = fault::FaultSpec::parse(spec_text);
    return std::make_shared<const fault::FaultPlan>(fault::FaultPlan::for_links(
        spec, 1, {bad}, mesh->link_space(), mesh->node_count()));
  }

  DetourFixture() { bad = mesh->route(src, dst).front(); }
};

TEST(FaultedRouting, DetourBypassesTheDegradedLink) {
  DetourFixture fx;
  ASSERT_NE(fx.mesh->alt_route(fx.src, fx.dst).front(), fx.bad);

  NetworkModel model(fx.mesh, NetParams{});
  model.set_fault_plan(fx.plan("links=0.1x4"));
  const Transfer t = model.reserve(fx.src, fx.dst, 4096, 0.0);
  EXPECT_GT(t.arrive, 0.0);
  EXPECT_EQ(model.stats().detours, 1u);
  EXPECT_EQ(model.stats().degraded_transfers, 0u)
      << "the detour is clean, so no degraded serialization is paid";
  EXPECT_DOUBLE_EQ(model.link_busy_us(fx.bad), 0.0)
      << "traffic still crossed the degraded link";
}

TEST(FaultedRouting, NoDetourWhenTheAlternativeIsNoBetter) {
  // Degrade both corners: the alternative is as bad as the primary, so the
  // model keeps the primary and pays the degradation.
  DetourFixture fx;
  const LinkId alt_bad = fx.mesh->alt_route(fx.src, fx.dst).front();
  const fault::FaultSpec spec = fault::FaultSpec::parse("links=0.1x4");
  auto plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::for_links(spec, 1, {fx.bad, alt_bad},
                                  fx.mesh->link_space(),
                                  fx.mesh->node_count()));
  NetworkModel model(fx.mesh, NetParams{});
  model.set_fault_plan(plan);
  const Transfer slow = model.reserve(fx.src, fx.dst, 4096, 0.0);
  EXPECT_EQ(model.stats().detours, 0u);
  EXPECT_EQ(model.stats().degraded_transfers, 1u);
  EXPECT_GT(model.link_busy_us(fx.bad), 0.0);

  // And the degraded transfer really is slower than a healthy one.
  NetworkModel healthy(fx.mesh, NetParams{});
  const Transfer fast = healthy.reserve(fx.src, fx.dst, 4096, 0.0);
  EXPECT_GT(slow.arrive, fast.arrive);
}

TEST(FaultedRouting, WindowedPlanRebuildsTheDetourMemo) {
  DetourFixture fx;
  NetworkModel model(fx.mesh, NetParams{});
  model.set_fault_plan(fx.plan("links=0.1x4,window=1000"));

  // Window 0 (degraded): the transfer detours around the bad link.
  (void)model.reserve(fx.src, fx.dst, 1024, 10.0);
  EXPECT_EQ(model.stats().detours, 1u);
  EXPECT_EQ(model.stats().route_invalidations, 0u);

  // Window 1 (healthy): crossing the boundary flushes the detour memo, and
  // the primary route is used again.
  (void)model.reserve(fx.src, fx.dst, 1024, 1500.0);
  EXPECT_EQ(model.stats().route_invalidations, 1u);
  EXPECT_EQ(model.stats().detours, 1u);
  const double busy = model.link_busy_us(fx.bad);
  EXPECT_GT(busy, 0.0) << "healthy window should use the primary route";

  // Window 2 (degraded again): the memo is rebuilt from scratch and the
  // transfer detours once more, leaving the bad link untouched.
  (void)model.reserve(fx.src, fx.dst, 1024, 2500.0);
  EXPECT_EQ(model.stats().route_invalidations, 2u);
  EXPECT_EQ(model.stats().detours, 2u);
  EXPECT_EQ(model.stats().degraded_transfers, 0u);
  EXPECT_DOUBLE_EQ(model.link_busy_us(fx.bad), busy)
      << "the second degraded window crossed the bad link";
}

TEST(FaultedRouting, PlanForWrongLinkSpaceRejected) {
  DetourFixture fx;
  NetworkModel model(fx.mesh, NetParams{});
  const fault::FaultSpec spec = fault::FaultSpec::parse("links=0.5x2");
  // A plan built for a much larger machine names links outside this mesh.
  auto foreign = std::make_shared<const fault::FaultPlan>(
      spec, 1, /*link_space=*/100000, /*ranks=*/1024);
  EXPECT_THROW(model.set_fault_plan(foreign), CheckError);
}

}  // namespace
}  // namespace spb::net
