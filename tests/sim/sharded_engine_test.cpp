// ShardedEngine: windowed drains, barrier staging, lookahead contract,
// determinism across worker-thread counts, and error propagation; since
// PR 10 also the per-region sub-windows (set_cross_delays / note_stage /
// safe_horizon) and the direct per-shard busy/idle accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/sharded.h"

namespace spb::sim {
namespace {

TEST(ShardedEngine, DrainsEachShardInTimeOrder) {
  ShardedEngine eng(2, 10.0, 1);
  std::vector<std::string> log;
  eng.at(5.0, 0, [&log]() { log.push_back("a@5"); });
  eng.at(1.0, 0, [&log]() { log.push_back("a@1"); });
  eng.at(3.0, 1, [&log]() { log.push_back("b@3"); });
  const SimTime end = eng.run({});
  // Within a shard strictly time-ordered; shards drain independently but
  // inline mode visits them in index order per window.
  EXPECT_EQ(log, (std::vector<std::string>{"a@1", "a@5", "b@3"}));
  EXPECT_DOUBLE_EQ(end, 5.0);
  EXPECT_EQ(eng.events_executed(), 3u);
}

TEST(ShardedEngine, EqualTimesKeepInsertionOrderWithinShard) {
  ShardedEngine eng(1, 100.0, 1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) eng.at(1.0, 0, [&order, i]() { order.push_back(i); });
  eng.run({});
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ShardedEngine, InWindowEventsMaySpawnIntoOwnShardOnly) {
  ShardedEngine eng(2, 10.0, 1);
  std::vector<std::string> log;
  eng.at(0.0, 0, [&eng, &log]() {
    eng.at(2.0, 0, [&log]() { log.push_back("child"); });
    log.push_back("parent");
  });
  eng.run({});
  EXPECT_EQ(log, (std::vector<std::string>{"parent", "child"}));
}

TEST(ShardedEngine, CrossShardPushInsideWindowIsRejected) {
  ShardedEngine eng(2, 10.0, 1);
  bool threw = false;
  eng.at(0.0, 0, [&eng, &threw]() {
    try {
      eng.at(5.0, 1, []() {});
    } catch (const CheckError&) {
      threw = true;
    }
  });
  eng.run({});
  EXPECT_TRUE(threw);
}

TEST(ShardedEngine, BarrierRunsBetweenWindowsAndMayPushCrossShard) {
  // One event at t=0 on shard 0; the first barrier (horizon 5) stages a
  // shard-1 event at exactly the horizon — the earliest legal time.
  ShardedEngine eng(2, 5.0, 1);
  std::vector<std::string> log;
  eng.at(0.0, 0, [&log]() { log.push_back("seed"); });
  bool staged = false;
  eng.run([&]() {
    if (!staged) {
      staged = true;
      eng.at(5.0, 1, [&log]() { log.push_back("staged"); });
    }
  });
  EXPECT_EQ(log, (std::vector<std::string>{"seed", "staged"}));
  EXPECT_EQ(eng.stats().windows, 2u);
}

TEST(ShardedEngine, BarrierPushBelowHorizonIsRejected) {
  ShardedEngine eng(2, 5.0, 1);
  eng.at(0.0, 0, []() {});
  bool threw = false;
  bool first = true;
  eng.run([&]() {
    if (!first) return;
    first = false;
    try {
      eng.at(4.999, 1, []() {});  // window was [0, 5): too early
    } catch (const CheckError&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
}

TEST(ShardedEngine, IdenticalResultsAcrossThreadCounts) {
  // Same event program on 1, 2 and 8 workers; per-shard execution logs
  // must match exactly (the engine's determinism contract).
  // Four assumed cores: workers engage whatever the host.
  auto trace_of = [](int threads) {
    ShardedEngine eng(4, 7.0, threads, 4);
    std::vector<std::vector<double>> per_shard(4);
    for (int s = 0; s < 4; ++s) {
      for (int k = 0; k < 50; ++k) {
        const double t = 0.5 * k + 0.25 * s;
        eng.at(t, s, [&per_shard, s, t]() {
          per_shard[static_cast<std::size_t>(s)].push_back(t);
        });
      }
    }
    eng.run({});
    return per_shard;
  };
  const auto t1 = trace_of(1);
  EXPECT_EQ(t1, trace_of(2));
  EXPECT_EQ(t1, trace_of(8));
}

TEST(ShardedEngine, StatsCountBusyAndIdleShardWindows) {
  ShardedEngine eng(2, 10.0, 1);
  eng.at(0.0, 0, []() {});
  eng.at(1.0, 0, []() {});  // same window, same shard; shard 1 idles
  eng.run({});
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.windows, 1u);
  EXPECT_EQ(st.idle_shard_windows, 1u);
  ASSERT_EQ(st.shards.size(), 2u);
  EXPECT_EQ(st.shards[0].events, 2u);
  EXPECT_EQ(st.shards[0].busy_windows, 1u);
  EXPECT_EQ(st.shards[1].events, 0u);
}

TEST(ShardedEngine, EventExceptionAbortsTheRun) {
  ShardedEngine eng(2, 10.0, 2);
  eng.at(0.0, 1, []() { throw std::runtime_error("boom"); });
  EXPECT_THROW(eng.run({}), std::runtime_error);
}

TEST(ShardedEngine, RunIsOneShot) {
  ShardedEngine eng(1, 1.0, 1);
  eng.run({});
  EXPECT_THROW(eng.run({}), CheckError);
}

TEST(ShardedEngine, RejectsNonPositiveWindow) {
  EXPECT_THROW(ShardedEngine(2, 0.0, 1), CheckError);
  EXPECT_THROW(ShardedEngine(2, -1.0, 1), CheckError);
}

TEST(ShardedEngine, ThreadsClampToShardCount) {
  const ShardedEngine eng(4, 1.0, 64);
  EXPECT_EQ(eng.threads(), 4);
}

TEST(ShardedEngine, CrossDelaysLetIndependentShardsRunAhead) {
  // Two shards that never talk.  With a wide cross-delay matrix each
  // drains its whole queue in a single window; with PR 7's uniform
  // window_us delays the same program needs many windows.
  const auto windows_of = [](bool wide) {
    ShardedEngine eng(2, 5.0, 1);
    if (wide) eng.set_cross_delays({5.0, 500.0, 500.0, 5.0});
    for (int k = 0; k < 10; ++k) {
      eng.at(10.0 * k, 0, []() {});
      eng.at(10.0 * k + 1.0, 1, []() {});
    }
    eng.run({});
    EXPECT_EQ(eng.events_executed(), 20u);
    return eng.stats().windows;
  };
  EXPECT_EQ(windows_of(true), 1u);
  EXPECT_GT(windows_of(false), 1u);
}

TEST(ShardedEngine, SetCrossDelaysValidatesShapeAndFloor) {
  ShardedEngine eng(2, 5.0, 1);
  // Wrong size.
  EXPECT_THROW(eng.set_cross_delays({5.0}), CheckError);
  // Off-diagonal entry below the self lookahead.
  EXPECT_THROW(eng.set_cross_delays({5.0, 4.999, 5.0, 5.0}), CheckError);
  // Diagonal entries are ignored (forced to window_us), so zeros are fine.
  eng.set_cross_delays({0.0, 10.0, 10.0, 0.0});
  EXPECT_DOUBLE_EQ(eng.min_cross_delay_us(), 10.0);
  EXPECT_DOUBLE_EQ(eng.max_cross_delay_us(), 10.0);
  eng.run({});
  EXPECT_THROW(eng.set_cross_delays({0.0, 10.0, 10.0, 0.0}), CheckError);
}

TEST(ShardedEngine, DelayMatrixIsClosedUnderChaining) {
  // Direct 0 -> 2 claims 100 us, but effects can chain through shard 1 in
  // 10 + 10: the planner must use the min-plus closure, not the raw entry.
  ShardedEngine eng(3, 1.0, 1);
  eng.set_cross_delays({1.0, 10.0, 100.0,    //
                        10.0, 1.0, 10.0,     //
                        100.0, 10.0, 1.0});
  EXPECT_DOUBLE_EQ(eng.min_cross_delay_us(), 10.0);
  EXPECT_DOUBLE_EQ(eng.max_cross_delay_us(), 20.0);
}

TEST(ShardedEngine, NoteStageCapsTheStagingShardsWindow) {
  // The wide delays would let shard 0 drain all three events at once, but
  // staging a transfer at t=0 caps its window at initiate + window_us, so
  // the t=6 event must wait for the window after the barrier.
  ShardedEngine eng(2, 5.0, 1);
  eng.set_cross_delays({5.0, 100.0, 100.0, 5.0});
  std::vector<std::string> log;
  eng.at(0.0, 0, [&eng, &log]() {
    eng.note_stage(0.0);
    log.push_back("stage@0");
  });
  eng.at(3.0, 0, [&log]() { log.push_back("e@3"); });
  eng.at(6.0, 0, [&log]() { log.push_back("e@6"); });
  eng.run([&log]() { log.push_back("barrier"); });
  EXPECT_EQ(log, (std::vector<std::string>{"stage@0", "e@3", "barrier",
                                           "e@6", "barrier"}));
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.windows, 2u);
  EXPECT_EQ(st.staged_xfers, 1u);
  EXPECT_EQ(st.held_xfers, 0u);  // initiate 0 < first safe horizon
}

TEST(ShardedEngine, SafeHorizonHoldsLateStagesForALaterBarrier) {
  // Shard 0 stages at t=18 in a window where shard 1 only reached t=6:
  // the first barrier's safe horizon is 6, so the t=18 transfer must be
  // held and applied by the *second* barrier.  The test barrier mimics
  // the runtime's hold-back rule: apply initiate < safe_horizon(), keep
  // the rest.
  struct Xfer {
    double initiate;
    int from;
    int to;
  };
  ShardedEngine eng(2, 5.0, 1);
  eng.set_cross_delays({5.0, 20.0, 20.0, 5.0});
  std::vector<Xfer> staged;
  std::vector<std::string> log;
  const auto stage = [&eng, &staged](double initiate, int from, int to) {
    eng.note_stage(initiate);
    staged.push_back({initiate, from, to});
  };
  eng.at(0.0, 0, [&log]() { log.push_back("s0@0"); });
  eng.at(18.0, 0, [&log, &stage]() {
    log.push_back("s0@18");
    stage(18.0, 0, 1);
  });
  eng.at(1.0, 1, [&log, &stage]() {
    log.push_back("s1@1");
    stage(1.0, 1, 0);
  });
  eng.run([&]() {
    // Canonical order: by initiation time (no ties here).
    std::sort(staged.begin(), staged.end(),
              [](const Xfer& a, const Xfer& b) {
                return a.initiate < b.initiate;
              });
    std::vector<Xfer> keep;
    for (const Xfer& x : staged) {
      if (x.initiate >= eng.safe_horizon()) {
        keep.push_back(x);
        continue;
      }
      const double land = x.initiate + 20.0;
      EXPECT_GE(land, eng.frontier(x.to));
      eng.at(land, x.to, [&log, land]() {
        log.push_back("land@" + std::to_string(static_cast<int>(land)));
      });
    }
    staged = keep;
  });
  EXPECT_EQ(log, (std::vector<std::string>{"s0@0", "s0@18", "s1@1",
                                           "land@21", "land@38"}));
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.staged_xfers, 2u);
  EXPECT_EQ(st.held_xfers, 1u);  // the t=18 stage sat out one barrier
  EXPECT_EQ(st.windows, 3u);
}

TEST(ShardedEngine, PerShardIdleCountsTileEveryWindow) {
  // Shard 0 is busy in both windows, shard 1 only in the first; the
  // reported idle count is the direct per-shard sum (the PR 10 fix — the
  // old derived `windows * shards - busy` could underflow).
  ShardedEngine eng(2, 5.0, 1);
  eng.at(0.0, 0, []() {});
  eng.at(0.0, 1, []() {});
  eng.at(7.0, 0, []() {});
  eng.run({});
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.windows, 2u);
  ASSERT_EQ(st.shards.size(), 2u);
  EXPECT_EQ(st.shards[0].busy_windows, 2u);
  EXPECT_EQ(st.shards[0].idle_windows, 0u);
  EXPECT_EQ(st.shards[1].busy_windows, 1u);
  EXPECT_EQ(st.shards[1].idle_windows, 1u);
  EXPECT_EQ(st.idle_shard_windows, 1u);
  for (const ShardStats& s : st.shards)
    EXPECT_EQ(s.busy_windows + s.idle_windows, st.windows);
}

TEST(ShardedEngine, SubWindowResultsIdenticalAcrossThreadCounts) {
  // The thread-count determinism contract again, now with asymmetric
  // cross delays and staging traffic in the mix.
  const auto trace_of = [](int threads) {
    ShardedEngine eng(3, 4.0, threads, 4);
    eng.set_cross_delays({4.0, 9.0, 30.0,   //
                          9.0, 4.0, 12.0,   //
                          30.0, 12.0, 4.0});
    std::vector<std::vector<double>> per_shard(3);
    for (int s = 0; s < 3; ++s) {
      for (int k = 0; k < 40; ++k) {
        const double t = 1.5 * k + 0.5 * s;
        const bool stages = k % 7 == 0;  // periodic cross-shard traffic
        eng.at(t, s, [&eng, &per_shard, s, t, stages]() {
          per_shard[static_cast<std::size_t>(s)].push_back(t);
          if (stages) eng.note_stage(t);
        });
      }
    }
    eng.run({});
    return per_shard;
  };
  const auto t1 = trace_of(1);
  EXPECT_EQ(t1, trace_of(2));
  EXPECT_EQ(t1, trace_of(3));
}

/// Delivery log of the typed-entry test, one vector per shard so that
/// concurrent drains never share one.
struct DeliveryLog {
  ShardedEngine* eng;
  std::vector<std::vector<std::uint32_t>> per_shard;
};

TEST(ShardedEngine, DeliveryEntriesRunThroughTheHookInOrder) {
  for (const int threads : {1, 2}) {
    ShardedEngine eng(2, 10.0, threads, 4);
    DeliveryLog log{&eng, std::vector<std::vector<std::uint32_t>>(2)};
    eng.set_deliver_hook({[](void* ctx, std::uint32_t slot) {
                            auto* l = static_cast<DeliveryLog*>(ctx);
                            l->per_shard[static_cast<std::size_t>(
                                             l->eng->current_shard())]
                                .push_back(slot);
                          },
                          &log});
    eng.deliver_at(3.0, 0, 30);
    eng.deliver_at(1.0, 0, 10);
    eng.deliver_at(2.0, 1, 20);
    bool threw = false;
    eng.at(1.0, 0, [&eng, &log, &threw]() {
      // Same time as slot 10, pushed after it: runs after it, and a
      // delivery it pushes for now runs after it in turn (FIFO ties
      // across kinds).
      log.per_shard[0].push_back(11);
      eng.deliver_at(1.0, 0, 12);
      try {
        eng.deliver_at(5.0, 1, 99);  // cross-shard inside a window
      } catch (const CheckError&) {
        threw = true;
      }
    });
    eng.run({});
    EXPECT_EQ(log.per_shard[0], (std::vector<std::uint32_t>{10, 11, 12, 30}));
    EXPECT_EQ(log.per_shard[1], (std::vector<std::uint32_t>{20}));
    EXPECT_TRUE(threw);
    EXPECT_EQ(eng.events_executed(), 5u);
  }
}

TEST(ShardedEngine, DeliveryNeedsAHook) {
  ShardedEngine eng(2, 10.0, 1);
  EXPECT_THROW(eng.deliver_at(1.0, 0, 0), CheckError);
}

TEST(ShardedEngine, RejectsNegativeCoreCount) {
  EXPECT_THROW(ShardedEngine(2, 10.0, 1, -1), CheckError);
}

}  // namespace
}  // namespace spb::sim
