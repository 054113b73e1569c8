#include "analyze/graph.h"

#include <gtest/gtest.h>

#include <vector>

#include "analyze/checks.h"
#include "mp/schedule.h"
#include "schedule_fixtures.h"
#include "stop/problem.h"

// The schedule graph both checkers read, pinned on hand-built schedules.

namespace spb::analyze {
namespace {

using fixtures::recv_op;
using fixtures::send_op;

TEST(ScheduleGraph, TwoDepthsOnThePairwiseExchange) {
  // Eager-send exchange: each rank sends, then receives the other's.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000),
          send_op(1, 1, 0, 0, 1020, {1}, 1000), recv_op(2, 0, 1, 0),
          recv_op(3, 1, 0, 0)});
  ScheduleGraph g(sched);
  g.match(2, 1);
  g.match(3, 0);
  const std::vector<int> order = g.topological_order();
  ASSERT_EQ(order.size(), sched.size());
  EXPECT_TRUE(g.find_cycle().empty());
  // One round of messages, but a chain of two ops: send, then receive.
  EXPECT_EQ(g.message_levels(order), (std::vector<int>{1, 1, 0, 0}));
  EXPECT_EQ(g.op_chain_depth(order), 2);
  const stop::Problem pb = stop::make_problem(machine::paragon(1, 2),
                                              std::vector<Rank>{0, 1}, 1000);
  EXPECT_EQ(analyze_schedule(sched, pb).quality.message_rounds, 1);
}

TEST(ScheduleGraph, ChannelIndexKeepsIssueOrder) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      3, {send_op(0, 0, 2, 5, 8, {0}, 4), send_op(1, 1, 2, 5, 8, {1}, 4),
          send_op(2, 0, 2, 1, 8, {0}, 4), send_op(3, 0, 2, 5, 8, {0}, 4),
          send_op(4, 1, 0, 5, 8, {1}, 4), recv_op(5, 2, 0, 5)});
  const ScheduleGraph g(sched);
  EXPECT_EQ(g.channel_count(), 4);
  const int c = g.find_channel(0, 2, 5);
  ASSERT_GE(c, 0);
  const auto sends = g.channel_sends(c);
  EXPECT_EQ(std::vector<int>(sends.begin(), sends.end()),
            (std::vector<int>{0, 3}));
  EXPECT_EQ(g.channel_of(3), c);
  EXPECT_EQ(g.channel_of(5), -1);
  EXPECT_EQ(g.find_channel(2, 0, 5), -1);
  // Into rank 2: (0, tag 1), (0, tag 5), (1, tag 5), ordered by (src, tag).
  const auto [first, last] = g.channels_into(2);
  EXPECT_EQ(last - first, 3);
  EXPECT_EQ(first + 1, c);
  EXPECT_EQ(g.channels_into(1).first, g.channels_into(1).second);
}

TEST(ScheduleGraph, RecvBeforeSendIsACycleAndAPartialOrder) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {recv_op(0, 0, 1, 0), recv_op(1, 1, 0, 0),
          send_op(2, 0, 1, 0, 1020, {0}, 1000),
          send_op(3, 1, 0, 0, 1020, {1}, 1000)});
  ScheduleGraph g(sched);
  g.match(0, 3);
  g.match(1, 2);
  EXPECT_LT(g.topological_order().size(), sched.size());
  // Each op waits on the next: 3 on 1 (program order), 1 on 2 (match),
  // 2 on 0 (program order), 0 on 3 (match).
  EXPECT_EQ(g.find_cycle(), (std::vector<int>{3, 1, 2, 0}));
}

}  // namespace
}  // namespace spb::analyze
