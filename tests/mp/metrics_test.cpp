#include "mp/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

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
  EXPECT_EQ(m.iteration_count(), 3u);
}

TEST(RankMetrics, TrailingEmptyIterationDropped) {
  RankMetrics m;
  m.on_send(10);
  m.mark_iteration();
  m.finalize();
  EXPECT_EQ(m.iteration_count(), 1u);
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
  EXPECT_EQ(m.iteration_count(), 3u);
  EXPECT_EQ(m.active_iterations(), 2u);  // the first and the last
}

/// The per-iteration model the running totals replace: one row of sends +
/// receives per iteration, the open one last; a mark materializes the open
/// row (even a silent one) and opens the next; finalizing drops a trailing
/// empty row.
struct IterationRows {
  std::vector<std::uint32_t> ops;

  std::uint32_t& open() {
    if (ops.empty()) ops.push_back(0);
    return ops.back();
  }
  void op() { ++open(); }
  void mark() {
    open();
    ops.push_back(0);
  }
  void finalize() {
    if (!ops.empty() && ops.back() == 0) ops.pop_back();
  }
  std::uint32_t congestion() const {
    std::uint32_t worst = 0;
    for (const std::uint32_t n : ops) worst = std::max(worst, n);
    return worst;
  }
  std::uint64_t active() const {
    return static_cast<std::uint64_t>(
        std::count_if(ops.begin(), ops.end(),
                      [](std::uint32_t n) { return n > 0; }));
  }
};

TEST(RankMetrics, RunningTotalsMatchPerIterationModel) {
  std::mt19937 rng(20240718);
  for (int trial = 0; trial < 400; ++trial) {
    const int ranks = 1 + static_cast<int>(rng() % 5);
    std::vector<RankMetrics> metrics(static_cast<std::size_t>(ranks));
    std::vector<IterationRows> model(static_cast<std::size_t>(ranks));
    for (std::size_t r = 0; r < metrics.size(); ++r) {
      // Per rank, a mix that covers silent iterations (several marks in a
      // row), trailing marks, ranks that never mark, compute-only ranks
      // and ranks that do nothing at all.
      const unsigned style = rng() % 5;
      const int steps = static_cast<int>(rng() % 40);
      for (int k = 0; k < steps; ++k) {
        const unsigned pick = rng() % 10;
        if (style == 0 || (style == 1 && pick < 5)) {
          metrics[r].on_compute(1.5);  // never touches iterations
        } else if (style != 2 && pick < 4) {
          metrics[r].mark_iteration();
          model[r].mark();
        } else if (pick % 2 == 0) {
          metrics[r].on_send(8 * (pick + 1));
          model[r].op();
        } else {
          metrics[r].on_recv(8 * (pick + 1), pick > 6, 1.0);
          model[r].op();
        }
      }
      if (rng() % 3 == 0) {  // a trailing mark after the last operation
        metrics[r].mark_iteration();
        model[r].mark();
      }
      metrics[r].finalize();
      model[r].finalize();
      EXPECT_EQ(metrics[r].congestion(), model[r].congestion()) << trial;
      EXPECT_EQ(metrics[r].iteration_count(), model[r].ops.size()) << trial;
      EXPECT_EQ(metrics[r].active_iterations(), model[r].active()) << trial;
    }

    std::vector<const RankMetrics*> in_place;
    for (const RankMetrics& m : metrics) in_place.push_back(&m);
    const RunMetrics run = RunMetrics::aggregate(in_place);
    std::size_t max_iters = 0;
    std::uint64_t active = 0;
    std::uint32_t congestion = 0;
    for (const IterationRows& m : model) {
      max_iters = std::max(max_iters, m.ops.size());
      active += m.active();
      congestion = std::max(congestion, m.congestion());
    }
    EXPECT_EQ(run.iterations, max_iters) << trial;
    EXPECT_EQ(run.congestion, congestion) << trial;
    EXPECT_DOUBLE_EQ(run.av_act_proc,
                     max_iters == 0 ? 0.0
                                    : static_cast<double>(active) /
                                          static_cast<double>(max_iters))
        << trial;
  }
}

TEST(RankMetrics, NoMarkOrComputeOnly) {
  RankMetrics ops_only;  // one open iteration, never marked
  ops_only.on_send(10);
  ops_only.on_recv(10, false, 0);
  ops_only.finalize();
  EXPECT_EQ(ops_only.iteration_count(), 1u);
  EXPECT_EQ(ops_only.active_iterations(), 1u);
  EXPECT_EQ(ops_only.congestion(), 2u);

  RankMetrics compute_only;
  compute_only.on_compute(3.0);
  compute_only.finalize();
  EXPECT_EQ(compute_only.iteration_count(), 0u);
  EXPECT_EQ(compute_only.congestion(), 0u);
}

TEST(RankMetrics, OperationsAfterFinalizeAreRejected) {
  RankMetrics m;
  m.finalize();
  EXPECT_THROW(m.on_send(1), CheckError);
  EXPECT_THROW(m.mark_iteration(), CheckError);
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
