#include "dist/ideal.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "coll/halving.h"
#include "common/check.h"
#include "common/math.h"
#include "dist/detail.h"

namespace spb::dist {

namespace {

/// Minimum circular distance from candidate c to the chosen set (the
/// spread tie-breaker; circular so the last and first rows of a wrapped
/// diagonal-ish layout count as close).
int min_distance(const std::vector<char>& chosen, int n, int c) {
  int best = n;
  for (int i = 0; i < n; ++i) {
    if (!chosen[static_cast<std::size_t>(i)]) continue;
    const int d = std::abs(i - c);
    best = std::min(best, std::min(d, n - d));
  }
  return best;
}

std::vector<int> greedy_ideal(int n, int k) {
  std::vector<char> chosen(static_cast<std::size_t>(n), 0);
  std::vector<int> result;
  result.reserve(static_cast<std::size_t>(k));
  for (int added = 0; added < k; ++added) {
    int best_cand = -1;
    std::vector<int> best_profile;
    int best_dist = -1;
    for (int c = 0; c < n; ++c) {
      if (chosen[static_cast<std::size_t>(c)]) continue;
      chosen[static_cast<std::size_t>(c)] = 1;
      std::vector<int> profile =
          coll::HalvingSchedule::activity_profile(chosen);
      chosen[static_cast<std::size_t>(c)] = 0;
      const int dist = min_distance(chosen, n, c);
      const bool better =
          best_cand < 0 || profile > best_profile ||
          (profile == best_profile && dist > best_dist);
      if (better) {
        best_cand = c;
        best_profile = std::move(profile);
        best_dist = dist;
      }
    }
    SPB_CHECK(best_cand >= 0);
    chosen[static_cast<std::size_t>(best_cand)] = 1;
    result.push_back(best_cand);
  }
  std::sort(result.begin(), result.end());
  return result;
}

// One-at-a-time greedy can paint itself into a corner (a set that was
// optimal for k-1 sources need not extend to an optimal k set); a few
// hill-climbing passes that try relocating each source to every free
// position recover the cases that matter.
std::vector<int> refine_ideal(int n, std::vector<int> positions) {
  const int k = static_cast<int>(positions.size());
  if (k == 0 || k == n) return positions;
  std::vector<char> chosen(static_cast<std::size_t>(n), 0);
  for (const int p : positions) chosen[static_cast<std::size_t>(p)] = 1;
  std::vector<int> profile = coll::HalvingSchedule::activity_profile(chosen);

  for (int pass = 0; pass < 4; ++pass) {
    bool improved = false;
    for (int i = 0; i < k; ++i) {
      const int from = positions[static_cast<std::size_t>(i)];
      for (int to = 0; to < n; ++to) {
        if (chosen[static_cast<std::size_t>(to)]) continue;
        chosen[static_cast<std::size_t>(from)] = 0;
        chosen[static_cast<std::size_t>(to)] = 1;
        std::vector<int> candidate =
            coll::HalvingSchedule::activity_profile(chosen);
        if (candidate > profile) {
          profile = std::move(candidate);
          positions[static_cast<std::size_t>(i)] = to;
          improved = true;
          break;  // re-evaluate this source from its new home
        }
        chosen[static_cast<std::size_t>(to)] = 0;
        chosen[static_cast<std::size_t>(from)] = 1;
      }
    }
    if (!improved) break;
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

}  // namespace

namespace {

std::vector<int> profile_of(int n, const std::vector<int>& positions) {
  std::vector<char> flags(static_cast<std::size_t>(n), 0);
  for (const int p : positions) flags[static_cast<std::size_t>(p)] = 1;
  return coll::HalvingSchedule::activity_profile(flags);
}

/// The placement search behind ideal_positions, unmemoized.
std::vector<int> search_ideal(int n, int k) {
  // Three seeds, each hill-climbed; the winner therefore dominates every
  // seed's raw profile.  The identity prefix is the provably clean one for
  // k <= each level's half (it recursively stays inside first halves); the
  // greedy seed wins the spread tie-breaks; evenly spaced covers the rest.
  std::vector<int> identity(static_cast<std::size_t>(k));
  std::vector<int> spaced(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    identity[static_cast<std::size_t>(j)] = j;
    spaced[static_cast<std::size_t>(j)] =
        static_cast<int>(static_cast<long long>(j) * n / k);
  }
  std::vector<std::vector<int>> seeds;
  seeds.push_back(greedy_ideal(n, k));
  seeds.push_back(std::move(identity));
  seeds.push_back(std::move(spaced));

  std::vector<int> best;
  std::vector<int> best_profile;
  for (std::vector<int>& seed : seeds) {
    std::vector<int> candidate = refine_ideal(n, std::move(seed));
    std::vector<int> profile = profile_of(n, candidate);
    if (best.empty() || profile > best_profile) {
      best = std::move(candidate);
      best_profile = std::move(profile);
    }
  }
  return best;
}

}  // namespace

std::vector<int> ideal_positions(int n, int k) {
  SPB_REQUIRE(n >= 1, "segment must have at least one position");
  SPB_REQUIRE(k >= 0 && k <= n, "source count " << k << " outside 0.." << n);
  if (k == 0) return {};
  // Process-wide memo shared by every concurrent sweep job and serve
  // worker.  The mutex guards only the map: the first caller of a cold key
  // searches outside it while later callers of that key wait for its
  // entry, so each (n, k) is searched once per process and no other key,
  // cached or cold, waits for the search.  A failed search drops its
  // entry, and the next caller of the key searches again.
  struct Entry {
    bool ready = false;
    std::vector<int> positions;
  };
  static std::mutex memo_mutex;
  static std::condition_variable memo_settled;  // an entry filled or dropped
  static std::map<std::pair<int, int>, Entry> memo;
  const std::pair<int, int> key(n, k);
  std::map<std::pair<int, int>, Entry>::iterator it;
  {
    std::unique_lock<std::mutex> lock(memo_mutex);
    for (;;) {
      bool inserted = false;
      std::tie(it, inserted) = memo.try_emplace(key);
      if (inserted) break;
      if (it->second.ready) return it->second.positions;
      memo_settled.wait(lock);
    }
  }
  std::vector<int> best;
  try {
    best = search_ideal(n, k);
  } catch (...) {
    {
      const std::scoped_lock lock(memo_mutex);
      memo.erase(it);
    }
    memo_settled.notify_all();
    throw;
  }
  {
    const std::scoped_lock lock(memo_mutex);
    it->second.positions = best;
    it->second.ready = true;
  }
  memo_settled.notify_all();
  return best;
}

std::vector<Rank> ideal_linear(const Grid& grid, int s) {
  detail::require_valid_s(grid, s);
  const std::vector<int> positions = ideal_positions(grid.p(), s);
  std::vector<Rank> out(positions.begin(), positions.end());
  return detail::finalize(grid, std::move(out), s);
}

namespace {

// Shared skeleton of ideal_rows / ideal_cols: pick the ideal set of lines
// along the spreading dimension and fill each fully; the remainder goes to
// the line whose late activation hurts least — the last one added by the
// greedy search is as good as any, so we use the largest index.
std::vector<Rank> ideal_lines(const Grid& grid, int s, bool lines_are_rows) {
  const int line_count = lines_are_rows ? grid.rows : grid.cols;
  const int line_len = lines_are_rows ? grid.cols : grid.rows;
  const int lines = static_cast<int>(ceil_div(s, line_len));
  const std::vector<int> picks = ideal_positions(line_count, lines);

  std::vector<Rank> out;
  out.reserve(static_cast<std::size_t>(s));
  int remaining = s;
  for (int j = 0; j < lines; ++j) {
    const int line = picks[static_cast<std::size_t>(j)];
    const int fill = std::min(remaining, line_len);
    for (int k = 0; k < fill; ++k)
      out.push_back(lines_are_rows ? grid.rank_of(line, k)
                                   : grid.rank_of(k, line));
    remaining -= fill;
  }
  return detail::finalize(grid, std::move(out), s);
}

}  // namespace

std::vector<Rank> ideal_rows(const Grid& grid, int s) {
  detail::require_valid_s(grid, s);
  return ideal_lines(grid, s, /*lines_are_rows=*/true);
}

std::vector<Rank> ideal_cols(const Grid& grid, int s) {
  detail::require_valid_s(grid, s);
  return ideal_lines(grid, s, /*lines_are_rows=*/false);
}

}  // namespace spb::dist
