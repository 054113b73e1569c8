// The recursive-halving communication structure underlying Br_Lin (paper
// Section 2), as a pure combinatorial schedule — no simulator types here,
// so the ideal-distribution generators can reuse it.
//
// A segment of n positions runs ceil(log2 n) iterations.  In the first
// iteration, with h = ceil(n/2), position i < n-h pairs with position i+h;
// both keep the union of their data (an exchange if both held data, a
// one-sided send if only one did, nothing if neither).  For odd n the last
// position of the first half (h-1) is unpaired; it pushes its data one-way
// to position h so the second half's collective holdings stay complete.
// The segment then splits into [0,h) and [h,n) and recurses.
//
// Invariant (proved by the property tests): if any position of a segment
// holds data at the start of its first iteration, then after the segment's
// iterations every position holds the union of the segment's initial data.
// Applied to the whole machine this is exactly s-to-p broadcasting with
// message combining.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace spb::coll {

/// One communication action of one position in one iteration, peer given
/// as a position inside the segment.
struct Action {
  enum class Type { kSend, kRecv };
  Type type = Type::kSend;
  int peer = -1;
  bool operator==(const Action&) const = default;
};

class HalvingSchedule {
 public:
  /// Builds the full schedule for `initially_active` (one flag per
  /// position; at least one position, any activity pattern including all-
  /// inactive, which yields an empty schedule).
  static HalvingSchedule compute(const std::vector<char>& initially_active);

  int size() const { return n_; }
  int iterations() const { return iterations_; }

  /// Actions of `pos` in `iter`, sends listed before receives.
  std::span<const Action> actions(int iter, int pos) const;

  /// Activity flags after `iter` iterations (iter == 0 gives the initial
  /// flags) — used by tests and by the metric analysis.
  std::span<const char> active_after(int iter) const;

  /// Number of active positions after `iter` iterations.
  int active_count_after(int iter) const;

  /// Positions in the order they first become active when the schedule is
  /// run with only position 0 active.  NOTE: a k-prefix of this order is
  /// NOT an ideal k-source placement (e.g. on n = 10 the prefix {0, 5}
  /// pairs in the very first iteration — the paper's R(20)-on-10x10
  /// observation); use dist::ideal_positions for placements.
  static std::vector<int> spread_order(int n);

  /// Active-position counts after each iteration for a given initial
  /// pattern, without materializing actions: profile[t] = active count
  /// after t iterations (profile[0] = initial count).  This is the cheap
  /// objective the ideal-placement search maximizes.
  static std::vector<int> activity_profile(const std::vector<char>& active);

 private:
  int n_ = 0;
  int iterations_ = 0;
  /// Every action, grouped by (iteration, position) in that order; the
  /// actions of (iter, pos) are acts_[offsets_[k]] .. acts_[offsets_[k + 1]]
  /// (exclusive) with k = iter * n + pos — at most one exchange plus one
  /// extra send/recv each.  Flat arrays sized exactly before they are
  /// filled, so a schedule costs the same few allocations however large
  /// it is.
  std::vector<Action> acts_;
  std::vector<std::uint32_t> offsets_;
  /// Activity flags, (iterations + 1) rows of n: row `iter` holds the
  /// flags after `iter` iterations, row 0 the initial pattern.
  std::vector<char> active_;
};

}  // namespace spb::coll
