#include "coll/halving.h"

#include <algorithm>

#include "common/check.h"
#include "common/math.h"

namespace spb::coll {

namespace {

/// Walks the halving recursion over n positions: for each iteration, calls
/// begin(iter), then split(lo, h, len) for every segment [lo, lo + len) of
/// at least two positions in position order, h = ceil(len / 2) being where
/// it halves.  A one-position segment has no partner left and drops out.
/// The two segment lists are reserved once (a level never has more than
/// n / 2 segments of two or more positions).
template <typename Begin, typename Split>
void walk(int n, int iterations, Begin&& begin, Split&& split) {
  struct Segment {
    int lo;
    int len;
  };
  std::vector<Segment> segments;
  std::vector<Segment> children;
  segments.reserve(static_cast<std::size_t>(n) / 2 + 1);
  children.reserve(static_cast<std::size_t>(n) / 2 + 1);
  if (n > 1) segments.push_back({0, n});
  for (int iter = 0; iter < iterations; ++iter) {
    begin(iter);
    children.clear();
    for (const Segment& seg : segments) {
      const int h = static_cast<int>(ceil_div(seg.len, 2));
      split(seg.lo, h, seg.len);
      if (h > 1) children.push_back({seg.lo, h});
      if (seg.len - h > 1) children.push_back({seg.lo + h, seg.len - h});
    }
    segments.swap(children);
  }
}

/// Activity table of the halving recursion: fills rows 1..iterations of
/// `active` ((iterations + 1) rows of n flags; row 0 holds the initial
/// pattern).  In each iteration a pair in which either side holds data
/// leaves both holding it, and an odd segment's unpaired position h - 1
/// pushes its data to h.  When `order` is non-null, positions are appended
/// to it as they first become active.
void fill_activity(int n, int iterations, std::vector<char>& active,
                   std::vector<int>* order) {
  const auto width = static_cast<std::size_t>(n);
  const char* cur = nullptr;
  char* next = nullptr;
  const auto activate = [&](int pos) {
    char& flag = next[static_cast<std::size_t>(pos)];
    if (flag != 0) return;
    flag = 1;
    if (order != nullptr) order->push_back(pos);
  };
  walk(
      n, iterations,
      [&](int iter) {
        cur = active.data() + static_cast<std::size_t>(iter) * width;
        next = active.data() + static_cast<std::size_t>(iter + 1) * width;
        std::copy(cur, cur + width, next);
      },
      [&](int lo, int h, int len) {
        for (int a = lo; a < lo + len - h; ++a) {
          const int b = a + h;
          if (cur[static_cast<std::size_t>(a)] != 0) activate(b);
          if (cur[static_cast<std::size_t>(b)] != 0) activate(a);
        }
        if (len % 2 != 0 && cur[static_cast<std::size_t>(lo + h - 1)] != 0)
          activate(lo + h);
      });
}

int iterations_for(std::size_t n) {
  return n > 1 ? ilog2_ceil(static_cast<std::int64_t>(n)) : 0;
}

}  // namespace

HalvingSchedule HalvingSchedule::compute(
    const std::vector<char>& initially_active) {
  SPB_REQUIRE(!initially_active.empty(), "schedule needs >= 1 position");
  HalvingSchedule s;
  const std::size_t n = initially_active.size();
  s.n_ = static_cast<int>(n);
  s.iterations_ = iterations_for(n);
  const auto iters = static_cast<std::size_t>(s.iterations_);
  s.active_.resize((iters + 1) * n);
  std::copy(initially_active.begin(), initially_active.end(),
            s.active_.begin());
  fill_activity(s.n_, s.iterations_, s.active_, nullptr);

  // Each active side of a pair sends once and its partner receives once;
  // the odd segment's push is one more send and receive.  Counting every
  // (iteration, position)'s actions first sizes the action array exactly.
  s.offsets_.assign(iters * n + 1, 0);
  const char* cur = nullptr;
  std::uint32_t* count = nullptr;
  walk(
      s.n_, s.iterations_,
      [&](int iter) {
        cur = s.active_.data() + static_cast<std::size_t>(iter) * n;
        count = s.offsets_.data() + static_cast<std::size_t>(iter) * n + 1;
      },
      [&](int lo, int h, int len) {
        for (int a = lo; a < lo + len - h; ++a) {
          const int b = a + h;
          const auto k =
              static_cast<std::uint32_t>((cur[static_cast<std::size_t>(a)] != 0) +
                                         (cur[static_cast<std::size_t>(b)] != 0));
          count[a] += k;
          count[b] += k;
        }
        if (len % 2 != 0 && cur[static_cast<std::size_t>(lo + h - 1)] != 0) {
          ++count[lo + h - 1];
          ++count[lo + h];
        }
      });
  for (std::size_t k = 1; k < s.offsets_.size(); ++k)
    s.offsets_[k] += s.offsets_[k - 1];
  s.acts_.resize(s.offsets_.back());

  // File the actions.  Each position's group lists its sends before its
  // receives, in the order the recursion meets them: a pair's send and
  // receive, then the push that lands on the upper half's first position
  // (its pair already filed).  `fill` is the next free slot per position.
  std::vector<std::uint32_t> fill(n);
  const auto put = [&](int pos, Action::Type type, int peer) {
    s.acts_[fill[static_cast<std::size_t>(pos)]++] = Action{type, peer};
  };
  walk(
      s.n_, s.iterations_,
      [&](int iter) {
        const std::size_t row = static_cast<std::size_t>(iter) * n;
        cur = s.active_.data() + row;
        std::copy(s.offsets_.begin() + static_cast<std::ptrdiff_t>(row),
                  s.offsets_.begin() + static_cast<std::ptrdiff_t>(row + n),
                  fill.begin());
      },
      [&](int lo, int h, int len) {
        for (int a = lo; a < lo + len - h; ++a) {
          const int b = a + h;
          const bool a_has = cur[static_cast<std::size_t>(a)] != 0;
          const bool b_has = cur[static_cast<std::size_t>(b)] != 0;
          if (a_has) put(a, Action::Type::kSend, b);
          if (b_has) put(a, Action::Type::kRecv, b);
          if (b_has) put(b, Action::Type::kSend, a);
          if (a_has) put(b, Action::Type::kRecv, a);
        }
        if (len % 2 != 0 && cur[static_cast<std::size_t>(lo + h - 1)] != 0) {
          put(lo + h - 1, Action::Type::kSend, lo + h);
          put(lo + h, Action::Type::kRecv, lo + h - 1);
        }
      });
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

std::span<const char> HalvingSchedule::active_after(int iter) const {
  SPB_REQUIRE(iter >= 0 && iter <= iterations_, "iteration out of range");
  const auto n = static_cast<std::size_t>(n_);
  return {active_.data() + static_cast<std::size_t>(iter) * n, n};
}

int HalvingSchedule::active_count_after(int iter) const {
  const std::span<const char> a = active_after(iter);
  return static_cast<int>(std::count(a.begin(), a.end(), char{1}));
}

std::vector<int> HalvingSchedule::activity_profile(
    const std::vector<char>& active) {
  SPB_REQUIRE(!active.empty(), "profile needs >= 1 position");
  const std::size_t n = active.size();
  const int iterations = iterations_for(n);
  std::vector<char> table((static_cast<std::size_t>(iterations) + 1) * n);
  std::copy(active.begin(), active.end(), table.begin());
  fill_activity(static_cast<int>(n), iterations, table, nullptr);
  std::vector<int> profile;
  profile.reserve(static_cast<std::size_t>(iterations) + 1);
  for (auto row = table.begin(); row != table.end();
       row += static_cast<std::ptrdiff_t>(n))
    profile.push_back(static_cast<int>(
        std::count(row, row + static_cast<std::ptrdiff_t>(n), char{1})));
  return profile;
}

std::vector<int> HalvingSchedule::spread_order(int n) {
  SPB_REQUIRE(n >= 1, "spread_order needs n >= 1");
  const auto width = static_cast<std::size_t>(n);
  const int iterations = iterations_for(width);
  std::vector<char> table((static_cast<std::size_t>(iterations) + 1) * width);
  table[0] = 1;
  std::vector<int> order;
  order.reserve(width);
  order.push_back(0);
  fill_activity(n, iterations, table, &order);
  SPB_CHECK_MSG(static_cast<int>(order.size()) == n,
                "spread from position 0 reached " << order.size() << " of "
                                                  << n << " positions");
  return order;
}

}  // namespace spb::coll
