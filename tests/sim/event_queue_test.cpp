#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace spb::sim {
namespace {

/// A coroutine for the typed resume entries: every resume records its
/// label in `sink` and suspends again.
struct Probe {
  struct promise_type {
    Probe get_return_object() {
      return Probe{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  explicit Probe(std::coroutine_handle<promise_type> handle) : h(handle) {}
  Probe(Probe&& other) noexcept : h(std::exchange(other.h, {})) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (h) h.destroy();
  }
  std::coroutine_handle<promise_type> h;
};

Probe probe(std::uint64_t& sink, std::uint64_t label) {
  for (;;) {
    sink = label;
    co_await std::suspend_always{};
  }
}

/// Labels the typed kinds leave in the sink; closures leave their id.
constexpr std::uint64_t kResumeLabel = std::uint64_t{1} << 40;
constexpr std::uint64_t kDeliverLabel = std::uint64_t{2} << 40;

/// A delivery hook that records the delivered slot in the sink at `ctx`.
DeliverHook recording_hook(std::uint64_t& sink) {
  return {[](void* ctx, std::uint32_t slot) {
            *static_cast<std::uint64_t*>(ctx) = kDeliverLabel | slot;
          },
          &sink};
}

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
  EXPECT_THROW(q.push_resume(0.0, std::coroutine_handle<>{}), CheckError);
  EXPECT_EQ(q.pushed(), 0u);
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
/// insertion), 120k operations per seed.  Each push is one of the three
/// entry kinds — a closure, a coroutine resume or a message delivery — so
/// ties between kinds are frequent and must still pop in insertion order.
/// Push times are >= the last pop and drawn from a small set (the last pop
/// itself, -0.0, subnormals, 1e300, short offsets, and points between the
/// last pop and the pending head).  A push of any kind below the last pop
/// must throw without being counted, and pushed() / peak_size() are exact.
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
      std::vector<std::uint64_t> label;  // what each insertion records
      std::uint64_t pushed = 0;
      std::uint64_t got = 0;
      std::size_t peak = 0;
      SimTime now = 0;
      std::vector<Probe> probes;
      for (std::uint64_t k = 0; k < 16; ++k)
        probes.push_back(probe(got, kResumeLabel | k));
      const DeliverHook hook = recording_hook(got);
      const auto push = [&](SimTime t) {
        const std::uint64_t id = pushed++;
        switch (rng.next_below(3)) {
          case 0:
            q.push(t, [&got, id] { got = id; });
            label.push_back(id);
            break;
          case 1:
            // Consecutive resumes use different coroutines.
            q.push_resume(t, probes[id % probes.size()].h);
            label.push_back(kResumeLabel | (id % probes.size()));
            break;
          default:
            q.push_deliver(t, static_cast<std::uint32_t>(id));
            label.push_back(kDeliverLabel | id);
            break;
        }
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
        Event e = q.pop();
        e.run(hook);
        ASSERT_EQ(got, label[id]) << "seed " << seed << " t=" << t;
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
          // Push between the last pop and the pending head.
          const SimTime head = ref.begin()->first;
          push(rng.next_below(2) == 0 ? now : now + (head - now) / 2);
        } else if (now > 0) {
          const SimTime early = std::nextafter(now, 0.0);
          EXPECT_THROW(q.push(early, [] {}), CheckError);
          EXPECT_THROW(q.push_resume(early, probes[0].h), CheckError);
          EXPECT_THROW(q.push_deliver(early, 0), CheckError);
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
