#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace spb::sim {
namespace {

TEST(Simulator, ClockAdvancesMonotonically) {
  Simulator sim;
  std::vector<double> seen;
  sim.at(5.0, [&] { seen.push_back(sim.now()); });
  sim.at(1.0, [&] { seen.push_back(sim.now()); });
  sim.after(2.5, [&] { seen.push_back(sim.now()); });
  const SimTime end = sim.run();
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.5, 5.0}));
  EXPECT_DOUBLE_EQ(end, 5.0);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] {
    ++fired;
    sim.after(1.0, [&] {
      ++fired;
      sim.after(1.0, [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.at(10.0, [&] {
    // now == 10; the past is rejected.
    EXPECT_THROW(sim.at(9.0, [] {}), CheckError);
    EXPECT_THROW(sim.after(-1.0, [] {}), CheckError);
  });
  sim.run();
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, DeliveriesRunThroughTheHookInScheduleOrder) {
  Simulator sim;
  std::vector<std::uint32_t> order;
  EXPECT_THROW(sim.deliver_at(1.0, 7), CheckError);  // no hook yet
  sim.set_deliver_hook({[](void* ctx, std::uint32_t slot) {
                          static_cast<std::vector<std::uint32_t>*>(ctx)
                              ->push_back(slot);
                        },
                        &order});
  sim.deliver_at(2.0, 20);
  sim.deliver_at(1.0, 10);
  sim.at(1.0, [&] {
    order.push_back(11);
    EXPECT_THROW(sim.deliver_at(0.5, 5), CheckError);  // the past
    sim.deliver_at(1.0, 12);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{10, 11, 12, 20}));
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(Simulator, RunBoundedStopsEarly) {
  Simulator sim;
  int fired = 0;
  // Self-perpetuating chain; run_bounded must cut it off.
  std::function<void()> tick = [&] {
    ++fired;
    sim.after(1.0, tick);
  };
  sim.at(0.0, tick);
  EXPECT_FALSE(sim.run_bounded(100));
  EXPECT_EQ(fired, 100);
}

TEST(Simulator, RunBoundedReportsDrained) {
  Simulator sim;
  sim.at(1.0, [] {});
  EXPECT_TRUE(sim.run_bounded(10));
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace spb::sim
