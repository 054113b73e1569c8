#include "coll/halving.h"

#include <algorithm>

#include "common/check.h"
#include "common/math.h"

namespace spb::coll {

namespace {

struct Segment {
  int lo = 0;
  int n = 0;
};

/// An action emitted for position `pos`, before grouping.
struct Emitted {
  int pos;
  Action act;
};

}  // namespace

HalvingSchedule HalvingSchedule::compute(
    const std::vector<char>& initially_active) {
  SPB_REQUIRE(!initially_active.empty(), "schedule needs >= 1 position");
  HalvingSchedule s;
  s.n_ = static_cast<int>(initially_active.size());
  s.iterations_ = s.n_ > 1 ? ilog2_ceil(s.n_) : 0;
  s.active_.push_back(initially_active);
  const auto n = static_cast<std::size_t>(s.n_);
  s.offsets_.reserve(static_cast<std::size_t>(s.iterations_) * n + 1);

  std::vector<Segment> segments{{0, s.n_}};
  std::vector<char> active = initially_active;
  std::vector<Emitted> emitted;
  // Group starts of the counting sort below, keyed 2 * pos + is_recv.
  std::vector<std::uint32_t> start(2 * n + 1);

  for (int iter = 0; iter < s.iterations_; ++iter) {
    std::vector<char> next = active;
    emitted.clear();
    const auto emit = [&](int pos, Action::Type type, int peer) {
      emitted.push_back({pos, {type, peer}});
    };

    // Emits the actions for "a talks to b": exchange when both are active,
    // a one-sided transfer when only one is.
    const auto connect = [&](int a, int b) {
      const bool a_has = active[static_cast<std::size_t>(a)] != 0;
      const bool b_has = active[static_cast<std::size_t>(b)] != 0;
      if (a_has) {
        emit(a, Action::Type::kSend, b);
        emit(b, Action::Type::kRecv, a);
        if (!b_has) {
          next[static_cast<std::size_t>(b)] = 1;
          s.activation_order_.push_back(b);
        }
      }
      if (b_has) {
        emit(b, Action::Type::kSend, a);
        emit(a, Action::Type::kRecv, b);
        if (!a_has) {
          next[static_cast<std::size_t>(a)] = 1;
          s.activation_order_.push_back(a);
        }
      }
    };

    // One-way push a -> b (the odd-segment fix-up).
    const auto push = [&](int a, int b) {
      if (active[static_cast<std::size_t>(a)] == 0) return;
      emit(a, Action::Type::kSend, b);
      emit(b, Action::Type::kRecv, a);
      if (next[static_cast<std::size_t>(b)] == 0) {
        next[static_cast<std::size_t>(b)] = 1;
        s.activation_order_.push_back(b);
      }
    };

    std::vector<Segment> children;
    for (const Segment& seg : segments) {
      if (seg.n <= 1) {
        children.push_back(seg);
        continue;
      }
      const int h = static_cast<int>(ceil_div(seg.n, 2));
      for (int i = 0; i < seg.n - h; ++i)
        connect(seg.lo + i, seg.lo + h + i);
      if (seg.n % 2 != 0) push(seg.lo + h - 1, seg.lo + h);
      children.push_back({seg.lo, h});
      children.push_back({seg.lo + h, seg.n - h});
    }

    // Group the iteration's actions by position, receives after sends, so
    // the executor's two passes see them in a stable order (connect/push
    // already emit sends before the matching receives per position, but a
    // position can appear in several pairs): a stable counting sort on
    // 2 * pos + is_recv keeps emission order within each group.
    const auto key = [](const Emitted& e) {
      return 2 * static_cast<std::size_t>(e.pos) +
             (e.act.type == Action::Type::kRecv ? 1 : 0);
    };
    std::fill(start.begin(), start.end(), 0);
    for (const Emitted& e : emitted) ++start[key(e) + 1];
    const auto base = static_cast<std::uint32_t>(s.acts_.size());
    for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
    for (std::size_t pos = 0; pos < n; ++pos)
      s.offsets_.push_back(base + start[2 * pos]);
    s.acts_.resize(s.acts_.size() + emitted.size());
    for (const Emitted& e : emitted) s.acts_[base + start[key(e)]++] = e.act;

    segments = std::move(children);
    active = next;
    s.active_.push_back(active);
  }
  s.offsets_.push_back(static_cast<std::uint32_t>(s.acts_.size()));
  return s;
}

std::span<const Action> HalvingSchedule::actions(int iter, int pos) const {
  SPB_REQUIRE(iter >= 0 && iter < iterations_, "iteration out of range");
  SPB_REQUIRE(pos >= 0 && pos < n_, "position out of range");
  const std::size_t k = static_cast<std::size_t>(iter) *
                            static_cast<std::size_t>(n_) +
                        static_cast<std::size_t>(pos);
  return {acts_.data() + offsets_[k], acts_.data() + offsets_[k + 1]};
}

const std::vector<char>& HalvingSchedule::active_after(int iter) const {
  SPB_REQUIRE(iter >= 0 && iter <= iterations_, "iteration out of range");
  return active_[static_cast<std::size_t>(iter)];
}

int HalvingSchedule::active_count_after(int iter) const {
  const auto& a = active_after(iter);
  return static_cast<int>(std::count(a.begin(), a.end(), char{1}));
}

std::vector<int> HalvingSchedule::activity_profile(
    const std::vector<char>& active) {
  SPB_REQUIRE(!active.empty(), "profile needs >= 1 position");
  const int n = static_cast<int>(active.size());
  const int iterations = n > 1 ? ilog2_ceil(n) : 0;
  std::vector<char> cur = active;
  std::vector<int> profile;
  profile.reserve(static_cast<std::size_t>(iterations) + 1);
  profile.push_back(
      static_cast<int>(std::count(cur.begin(), cur.end(), char{1})));

  std::vector<Segment> segments{{0, n}};
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<char> next = cur;
    std::vector<Segment> children;
    children.reserve(segments.size() * 2);
    for (const Segment& seg : segments) {
      if (seg.n <= 1) {
        children.push_back(seg);
        continue;
      }
      const int h = static_cast<int>(ceil_div(seg.n, 2));
      for (int i = 0; i < seg.n - h; ++i) {
        const auto a = static_cast<std::size_t>(seg.lo + i);
        const auto b = static_cast<std::size_t>(seg.lo + h + i);
        if (cur[a] || cur[b]) next[a] = next[b] = 1;
      }
      if (seg.n % 2 != 0 &&
          cur[static_cast<std::size_t>(seg.lo + h - 1)]) {
        next[static_cast<std::size_t>(seg.lo + h)] = 1;
      }
      children.push_back({seg.lo, h});
      children.push_back({seg.lo + h, seg.n - h});
    }
    segments = std::move(children);
    cur = std::move(next);
    profile.push_back(
        static_cast<int>(std::count(cur.begin(), cur.end(), char{1})));
  }
  return profile;
}

std::vector<int> HalvingSchedule::spread_order(int n) {
  SPB_REQUIRE(n >= 1, "spread_order needs n >= 1");
  std::vector<char> active(static_cast<std::size_t>(n), 0);
  active[0] = 1;
  const HalvingSchedule s = compute(active);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  order.push_back(0);
  order.insert(order.end(), s.activation_order_.begin(),
               s.activation_order_.end());
  SPB_CHECK_MSG(static_cast<int>(order.size()) == n,
                "spread from position 0 reached " << order.size() << " of "
                                                  << n << " positions");
  return order;
}

}  // namespace spb::coll
