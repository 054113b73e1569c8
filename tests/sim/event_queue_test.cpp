#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace spb::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) q.push(7.0, [&, i] { order.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, MixedTimesStableWithinTies) {
  EventQueue q;
  Rng rng(31);
  std::vector<std::pair<double, int>> popped;
  int seq = 0;
  for (int i = 0; i < 500; ++i) {
    const double t = static_cast<double>(rng.next_below(10));
    const int id = seq++;
    q.push(t, [&popped, t, id] { popped.push_back({t, id}); });
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(popped.size(), 500u);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1].first, popped[i].first);
    if (popped[i - 1].first == popped[i].first) {
      EXPECT_LT(popped[i - 1].second, popped[i].second);
    }
  }
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), CheckError);
}

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.push(0.0, nullptr), CheckError);
}

TEST(EventQueue, CountsPushes) {
  EventQueue q;
  EXPECT_EQ(q.pushed(), 0u);
  q.push(0.0, [] {});
  q.push(1.0, [] {});
  EXPECT_EQ(q.pushed(), 2u);
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.pushed(), 2u);  // pops do not change the push count
  EXPECT_EQ(q.size(), 1u);
}

/// Randomized differential check against a reference ordered by (time,
/// insertion), 120k operations per seed.  Push times are >= the last pop
/// and drawn from a small set (the last pop itself, -0.0, subnormals,
/// 1e300, short offsets), so ties are frequent.  top_time() is checked
/// before every pop, the sharded engine's peek-then-push-below-the-head
/// pattern is exercised, a push below the last pop must throw without
/// being counted, and pushed() / peak_size() are exact.
TEST(EventQueue, RandomizedAgainstReferenceOrder) {
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  static constexpr SimTime kFixed[] = {-0.0,   0.0,  kTiny, 3 * kTiny,
                                       1e-300, 0.25, 1.0,   2.5};
  const auto bits = [](SimTime t) { return std::bit_cast<std::uint64_t>(t); };
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    Rng rng(seed);
    for (int round = 0; round < 4; ++round) {
      EventQueue q;
      std::set<std::pair<SimTime, std::uint64_t>> ref;  // (time, insertion)
      std::uint64_t pushed = 0;
      std::uint64_t got = 0;
      std::size_t peak = 0;
      SimTime now = 0;
      const auto push = [&](SimTime t) {
        const std::uint64_t id = pushed++;
        q.push(t, [&got, id] { got = id; });
        ref.emplace(t + 0.0, id);
        peak = std::max(peak, ref.size());
      };
      const auto pick = [&]() -> SimTime {
        const SimTime fixed = kFixed[rng.next_below(8)];
        switch (rng.next_below(5)) {
          case 0: return now;
          case 1: return fixed >= now ? fixed : now;
          case 2: return now + kTiny * static_cast<double>(rng.next_below(3));
          case 3: return rng.next_below(4000) == 0 ? 1e300 : now + 1.0;
          default: return now + 0.5 * static_cast<double>(rng.next_below(5));
        }
      };
      const auto pop = [&] {
        ASSERT_EQ(q.size(), ref.size());
        const auto [t, id] = *ref.begin();
        ASSERT_EQ(bits(q.top_time()), bits(t)) << "seed " << seed;
        Event e = q.pop();
        e.fn();
        ASSERT_EQ(got, id) << "seed " << seed << " t=" << t;
        ASSERT_EQ(bits(e.time), bits(t));
        ref.erase(ref.begin());
        now = e.time;
      };
      for (int i = 0; i < 30000 && !HasFatalFailure(); ++i) {
        const std::uint64_t op = rng.next_below(100);
        if (op < 52 || ref.empty()) {
          push(pick());
        } else if (op < 95) {
          pop();
        } else if (op < 98) {
          // Sharded pattern: peek the head, then push between the last
          // pop and the head; the peek must not have moved the queue on.
          const SimTime head = q.top_time();
          push(rng.next_below(2) == 0 ? now : now + (head - now) / 2);
        } else if (now > 0) {
          EXPECT_THROW(q.push(std::nextafter(now, 0.0), [] {}), CheckError);
        }
        ASSERT_EQ(q.pushed(), pushed);
      }
      while (!ref.empty() && !HasFatalFailure()) pop();
      ASSERT_TRUE(q.empty());
      EXPECT_EQ(q.peak_size(), peak);
    }
  }
}

}  // namespace
}  // namespace spb::sim
