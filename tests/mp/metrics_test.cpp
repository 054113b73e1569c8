#include "mp/metrics.h"

#include <gtest/gtest.h>

namespace spb::mp {
namespace {

TEST(RankMetrics, CountsSendsAndReceives) {
  RankMetrics m;
  m.on_send(100);
  m.on_send(200);
  m.on_recv(50, /*blocked=*/true, /*wait_us=*/5.0);
  m.on_recv(50, /*blocked=*/false, 0.0);
  m.finalize();
  EXPECT_EQ(m.sends(), 2u);
  EXPECT_EQ(m.recvs(), 2u);
  EXPECT_EQ(m.send_recv_total(), 4u);
  EXPECT_EQ(m.bytes_sent(), 300u);
  EXPECT_EQ(m.bytes_received(), 100u);
  EXPECT_EQ(m.waits(), 1u);
  EXPECT_DOUBLE_EQ(m.wait_us(), 5.0);
  EXPECT_DOUBLE_EQ(m.avg_message_bytes(), 100.0);
}

TEST(RankMetrics, CongestionIsPerIterationMax) {
  RankMetrics m;
  m.on_send(10);  // iteration 0: 1 op
  m.mark_iteration();
  m.on_send(10);  // iteration 1: 3 ops — the congestion spike
  m.on_recv(10, false, 0);
  m.on_recv(10, false, 0);
  m.mark_iteration();
  m.on_recv(10, false, 0);  // iteration 2: 1 op
  m.finalize();
  EXPECT_EQ(m.congestion(), 3u);
  EXPECT_EQ(m.iterations().size(), 3u);
}

TEST(RankMetrics, TrailingEmptyIterationDropped) {
  RankMetrics m;
  m.on_send(10);
  m.mark_iteration();
  m.finalize();
  EXPECT_EQ(m.iterations().size(), 1u);
}

TEST(RankMetrics, SilentIterationsCount) {
  // A rank that stays idle in the middle iteration: the iteration exists
  // (for the av_act_proc axis) but is inactive.
  RankMetrics m;
  m.on_send(10);
  m.mark_iteration();
  m.mark_iteration();
  m.on_send(10);
  m.mark_iteration();
  m.finalize();
  ASSERT_EQ(m.iterations().size(), 3u);
  EXPECT_TRUE(m.iterations()[0].active());
  EXPECT_FALSE(m.iterations()[1].active());
  EXPECT_TRUE(m.iterations()[2].active());
}

TEST(RunMetrics, AggregatesAcrossRanks) {
  std::vector<RankMetrics> ranks(3);
  // Rank 0: heavy hitter — 4 ops in one iteration.
  ranks[0].on_send(1000);
  ranks[0].on_send(1000);
  ranks[0].on_recv(1000, true, 3.0);
  ranks[0].on_recv(1000, true, 4.0);
  ranks[0].mark_iteration();
  // Rank 1: one op per iteration, two iterations.
  ranks[1].on_send(500);
  ranks[1].mark_iteration();
  ranks[1].on_recv(500, false, 0);
  ranks[1].mark_iteration();
  // Rank 2: silent.
  for (auto& r : ranks) r.finalize();

  std::vector<const RankMetrics*> in_place;
  for (const RankMetrics& r : ranks) in_place.push_back(&r);
  const RunMetrics m = RunMetrics::aggregate(in_place);
  EXPECT_EQ(m.total_sends, 3u);
  EXPECT_EQ(m.total_recvs, 3u);
  EXPECT_EQ(m.congestion, 4u);
  EXPECT_EQ(m.max_waits, 2u);
  EXPECT_EQ(m.max_send_recv, 4u);
  EXPECT_DOUBLE_EQ(m.av_msg_lgth, 1000.0);
  EXPECT_EQ(m.iterations, 2u);
  // Active rank-iterations: rank0 iter0, rank1 iter0, rank1 iter1 = 3,
  // over 2 iterations.
  EXPECT_DOUBLE_EQ(m.av_act_proc, 1.5);
}

TEST(RunMetrics, EmptyAggregation) {
  const RunMetrics m = RunMetrics::aggregate({});
  EXPECT_EQ(m.total_sends, 0u);
  EXPECT_EQ(m.iterations, 0u);
  EXPECT_DOUBLE_EQ(m.av_act_proc, 0.0);
}

}  // namespace
}  // namespace spb::mp
