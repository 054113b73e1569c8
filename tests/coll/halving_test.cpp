#include "coll/halving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "../mp/alloc_count.h"
#include "common/check.h"
#include "common/math.h"
#include "common/rng.h"

namespace spb::coll {
namespace {

// Pure schedule-level interpreter: runs the schedule on sets of source ids
// and returns each position's final holdings.  This is the ground truth the
// runtime engine is tested against.
std::vector<std::set<int>> interpret(const HalvingSchedule& s,
                                     const std::vector<char>& active) {
  const int n = s.size();
  std::vector<std::set<int>> data(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    if (active[static_cast<std::size_t>(i)]) data[static_cast<std::size_t>(i)].insert(i);
  for (int iter = 0; iter < s.iterations(); ++iter) {
    // Sends ship start-of-iteration data.
    const std::vector<std::set<int>> snapshot = data;
    for (int pos = 0; pos < n; ++pos) {
      for (const Action& a : s.actions(iter, pos)) {
        if (a.type == Action::Type::kRecv) {
          const auto& incoming =
              snapshot[static_cast<std::size_t>(a.peer)];
          data[static_cast<std::size_t>(pos)].insert(incoming.begin(),
                                                     incoming.end());
        }
      }
    }
  }
  return data;
}

std::vector<Action> as_vector(std::span<const Action> acts) {
  return {acts.begin(), acts.end()};
}

std::vector<char> flags_from(int n, const std::vector<int>& sources) {
  std::vector<char> f(static_cast<std::size_t>(n), 0);
  for (const int s : sources) f[static_cast<std::size_t>(s)] = 1;
  return f;
}

TEST(Halving, IterationCountIsCeilLog2) {
  for (const int n : {1, 2, 3, 4, 5, 7, 8, 9, 100, 120, 128, 256}) {
    const auto s =
        HalvingSchedule::compute(std::vector<char>(static_cast<std::size_t>(n), 1));
    EXPECT_EQ(s.iterations(), n > 1 ? ilog2_ceil(n) : 0) << "n=" << n;
  }
}

TEST(Halving, FirstIterationPairsAcrossTheMiddle) {
  // n=8, all active: position i exchanges with i+4.
  const auto s = HalvingSchedule::compute(std::vector<char>(8, 1));
  for (int i = 0; i < 4; ++i) {
    const auto& acts = s.actions(0, i);
    ASSERT_EQ(acts.size(), 2u) << i;
    EXPECT_EQ(acts[0], (Action{Action::Type::kSend, i + 4}));
    EXPECT_EQ(acts[1], (Action{Action::Type::kRecv, i + 4}));
  }
}

TEST(Halving, OneSidedSendWhenPartnerEmpty) {
  // Only position 0 active on 4 positions: iteration 0 is a single send
  // 0 -> 2, no reverse traffic.
  const auto s = HalvingSchedule::compute(flags_from(4, {0}));
  EXPECT_EQ(as_vector(s.actions(0, 0)),
            (std::vector<Action>{{Action::Type::kSend, 2}}));
  EXPECT_EQ(as_vector(s.actions(0, 2)),
            (std::vector<Action>{{Action::Type::kRecv, 0}}));
  EXPECT_TRUE(s.actions(0, 1).empty());
  EXPECT_TRUE(s.actions(0, 3).empty());
}

TEST(Halving, SilentPairProducesNoTraffic) {
  const auto s = HalvingSchedule::compute(flags_from(8, {0}));
  // Pair (1, 5): both empty in iteration 0.
  EXPECT_TRUE(s.actions(0, 1).empty());
  EXPECT_TRUE(s.actions(0, 5).empty());
}

TEST(Halving, BroadcastCoverageAllSizesSingleSource) {
  // Every position ends with the source's data, for every n and source.
  for (int n = 1; n <= 40; ++n) {
    for (int src = 0; src < n; ++src) {
      const auto flags = flags_from(n, {src});
      const auto s = HalvingSchedule::compute(flags);
      const auto data = interpret(s, flags);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(data[static_cast<std::size_t>(i)],
                  (std::set<int>{src}))
            << "n=" << n << " src=" << src << " pos=" << i;
      }
    }
  }
}

TEST(Halving, AllgatherCoverageRandomPatterns) {
  // Property: for arbitrary activity patterns, every position ends with
  // the union of all initially-held ids.
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(64));
    const int k = 1 + static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    std::vector<std::int32_t> sources =
        rng.sample_without_replacement(n, k);
    const auto flags =
        flags_from(n, std::vector<int>(sources.begin(), sources.end()));
    const auto s = HalvingSchedule::compute(flags);
    const auto data = interpret(s, flags);
    const std::set<int> want(sources.begin(), sources.end());
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(data[static_cast<std::size_t>(i)], want)
          << "n=" << n << " k=" << k << " trial=" << trial << " pos=" << i;
  }
}

TEST(Halving, ActivityDoublesFromSingleSourceOnPow2) {
  const auto s = HalvingSchedule::compute(flags_from(64, {0}));
  for (int iter = 0; iter <= s.iterations(); ++iter)
    EXPECT_EQ(s.active_count_after(iter), 1 << iter);
}

TEST(Halving, ActivityNeverDecreases) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(120));
    const int k = 1 + static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    const auto srcs = rng.sample_without_replacement(n, k);
    const auto s = HalvingSchedule::compute(
        flags_from(n, std::vector<int>(srcs.begin(), srcs.end())));
    for (int iter = 0; iter < s.iterations(); ++iter)
      EXPECT_LE(s.active_count_after(iter),
                s.active_count_after(iter + 1));
    EXPECT_EQ(s.active_count_after(s.iterations()), n);
  }
}

TEST(Halving, PerIterationActionCountIsBounded) {
  // Congestion O(1): even with the odd-segment fix-up no position handles
  // more than 4 actions (one exchange + one extra exchange-side) per
  // iteration.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(200));
    const auto s = HalvingSchedule::compute(
        std::vector<char>(static_cast<std::size_t>(n), 1));
    for (int iter = 0; iter < s.iterations(); ++iter)
      for (int pos = 0; pos < n; ++pos)
        EXPECT_LE(s.actions(iter, pos).size(), 4u)
            << "n=" << n << " iter=" << iter << " pos=" << pos;
  }
}

TEST(Halving, SendsPrecedeReceivesInActionLists) {
  const auto s = HalvingSchedule::compute(std::vector<char>(21, 1));
  for (int iter = 0; iter < s.iterations(); ++iter) {
    for (int pos = 0; pos < 21; ++pos) {
      bool seen_recv = false;
      for (const Action& a : s.actions(iter, pos)) {
        if (a.type == Action::Type::kRecv) seen_recv = true;
        if (a.type == Action::Type::kSend) {
          EXPECT_FALSE(seen_recv);
        }
      }
    }
  }
}

TEST(Halving, SendsAndReceivesMatchPairwise) {
  Rng rng(55);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(100));
    const int k = 1 + static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    const auto srcs = rng.sample_without_replacement(n, k);
    const auto s = HalvingSchedule::compute(
        flags_from(n, std::vector<int>(srcs.begin(), srcs.end())));
    for (int iter = 0; iter < s.iterations(); ++iter) {
      std::multiset<std::pair<int, int>> sends;
      std::multiset<std::pair<int, int>> recvs;
      for (int pos = 0; pos < n; ++pos) {
        for (const Action& a : s.actions(iter, pos)) {
          if (a.type == Action::Type::kSend) {
            sends.insert({pos, a.peer});
          } else {
            recvs.insert({a.peer, pos});
          }
        }
      }
      EXPECT_EQ(sends, recvs) << "n=" << n << " iter=" << iter;
    }
  }
}

TEST(Halving, PowerOfTwoAllActiveMovesNoDuplicates) {
  // For 2^k segments with everyone active, the interpreter must never see
  // a position receive an id it already holds (zero redundant traffic).
  for (const int n : {2, 4, 8, 16, 32, 64}) {
    const auto flags = std::vector<char>(static_cast<std::size_t>(n), 1);
    const auto s = HalvingSchedule::compute(flags);
    std::vector<std::set<int>> data(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) data[static_cast<std::size_t>(i)].insert(i);
    for (int iter = 0; iter < s.iterations(); ++iter) {
      const auto snapshot = data;
      for (int pos = 0; pos < n; ++pos) {
        for (const Action& a : s.actions(iter, pos)) {
          if (a.type != Action::Type::kRecv) continue;
          for (const int id : snapshot[static_cast<std::size_t>(a.peer)]) {
            EXPECT_EQ(data[static_cast<std::size_t>(pos)].count(id), 0u)
                << "n=" << n << " duplicate id " << id << " at " << pos;
            data[static_cast<std::size_t>(pos)].insert(id);
          }
        }
      }
    }
  }
}

TEST(Halving, SpreadOrderIsAPermutation) {
  for (const int n : {1, 2, 3, 7, 10, 16, 100, 121}) {
    auto order = HalvingSchedule::spread_order(n);
    ASSERT_EQ(static_cast<int>(order.size()), n);
    EXPECT_EQ(order[0], 0);
    std::sort(order.begin(), order.end());
    for (int i = 0; i < n; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Halving, SpreadOrderFirstStepsOnTen) {
  // Spreading from position 0 on 10 positions reaches 5 first (the
  // cross-middle partner), then the midpoints of both halves.
  const auto order = HalvingSchedule::spread_order(10);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 5);
  // Note: {0, 5} as an *initial placement* would pair in iteration 0 and
  // not double — the paper's R(20)-on-10x10 observation; that is why
  // ideal placements are searched (dist::ideal_positions), not read off
  // this order.
  std::vector<char> both(10, 0);
  both[0] = both[5] = 1;
  const auto s = HalvingSchedule::compute(both);
  EXPECT_EQ(s.active_count_after(1), 2);  // merged, no growth
}

TEST(Halving, ActivityProfileMatchesSchedule) {
  Rng rng(321);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(100));
    const int k = 1 + static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    const auto srcs = rng.sample_without_replacement(n, k);
    const auto flags =
        flags_from(n, std::vector<int>(srcs.begin(), srcs.end()));
    const auto s = HalvingSchedule::compute(flags);
    const auto profile = HalvingSchedule::activity_profile(flags);
    ASSERT_EQ(static_cast<int>(profile.size()), s.iterations() + 1);
    for (int iter = 0; iter <= s.iterations(); ++iter)
      EXPECT_EQ(profile[static_cast<std::size_t>(iter)],
                s.active_count_after(iter))
          << "n=" << n << " k=" << k << " iter=" << iter;
  }
}

TEST(Halving, EmptyActivityYieldsSilentSchedule) {
  const auto s = HalvingSchedule::compute(std::vector<char>(16, 0));
  for (int iter = 0; iter < s.iterations(); ++iter)
    for (int pos = 0; pos < 16; ++pos)
      EXPECT_TRUE(s.actions(iter, pos).empty());
}

TEST(HalvingSchedule, ComputeAllocationsDoNotGrowWithIterations) {
  // The activity table, the offsets and the actions are flat arrays sized
  // before they are filled, and the recursion's scratch lists are reserved
  // once: 6 iterations over 64 positions allocate as often as 12 over
  // 4096.
  const auto allocs = [](int n) {
    std::vector<char> all(static_cast<std::size_t>(n), 1);
    std::vector<char> one(static_cast<std::size_t>(n), 0);
    one[static_cast<std::size_t>(n / 3)] = 1;
    const std::size_t before = test::allocations_here();
    const HalvingSchedule a = HalvingSchedule::compute(all);
    const HalvingSchedule b = HalvingSchedule::compute(one);
    EXPECT_EQ(a.active_count_after(a.iterations()), n);
    EXPECT_EQ(b.active_count_after(b.iterations()), n);
    return test::allocations_here() - before;
  };
  EXPECT_EQ(allocs(64), allocs(4096));
}

TEST(Halving, RejectsEmptyInput) {
  EXPECT_THROW(HalvingSchedule::compute({}), CheckError);
  EXPECT_THROW(HalvingSchedule::spread_order(0), CheckError);
}

}  // namespace
}  // namespace spb::coll
