// Segmented, pipelined one-to-all broadcast.
//
// Store-and-forward of a large combined message through a log-depth tree
// serializes the full message on every level — fine for the paper's own
// NX implementation on the Paragon, but vendor-tuned collectives (the
// Cray T3D MPI the paper calls into) pipeline: the message is cut into
// segments and a node forwards segment k while receiving segment k+1, so
// the end-to-end time is roughly depth * segment_cost + size / bandwidth.
//
// Segments are pure timing traffic (sized filler messages); the symbolic
// payload rides the last segment, so the chunk-algebra correctness check
// still sees exactly one delivery per rank.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "coll/halving.h"
#include "common/types.h"
#include "mp/runtime.h"
#include "sim/task.h"

namespace spb::coll {

/// Broadcast tree extracted from a single-source HalvingSchedule: every
/// position has at most one parent; children are listed in send order
/// (earliest halving iteration first, i.e. biggest subtree first).
struct BcastTree {
  int root = 0;
  std::vector<int> parent;  // -1 for the root

  /// Children of `pos` in send order.
  std::span<const int> children(int pos) const {
    return {kids_.data() + first_[static_cast<std::size_t>(pos)],
            kids_.data() + first_[static_cast<std::size_t>(pos) + 1]};
  }

  /// Builds the tree for n positions with the source at position
  /// `root_pos` (the halving pattern the paper's 2-Step broadcast uses).
  /// Fan-out at the root is log2(n) — fine store-and-forward, poor when
  /// pipelining (the root repeats every segment once per child).
  static BcastTree from_halving(int n, int root_pos);

  /// Balanced binary tree rooted at `root_pos`: fan-out 2 everywhere, depth
  /// ceil(log2 n) — the shape vendor collectives pipeline through.
  static BcastTree binary(int n, int root_pos);

 private:
  /// Every position's children in one array, grouped by position: those
  /// of pos are kids_[first_[pos]] .. kids_[first_[pos + 1]] (exclusive).
  std::vector<int> kids_;
  std::vector<std::size_t> first_;
};

/// Runs position `my_pos` of a pipelined broadcast of `total_wire` bytes in
/// segments of at most `segment_bytes`.  The root's `data` is the payload;
/// every other rank's `data` receives it (merged without combining cost —
/// a broadcast lands in its destination buffer, it does not combine).
/// Marks one metrics iteration per segment handled.
sim::Task pipelined_bcast(mp::Comm& comm,
                          std::shared_ptr<const std::vector<Rank>> seq,
                          int my_pos, std::shared_ptr<const BcastTree> tree,
                          mp::Payload& data, Bytes total_wire,
                          Bytes segment_bytes);

}  // namespace spb::coll
