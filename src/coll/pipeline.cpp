#include "coll/pipeline.h"

#include <utility>

#include "common/check.h"
#include "common/math.h"

namespace spb::coll {

BcastTree BcastTree::from_halving(int n, int root_pos) {
  SPB_REQUIRE(n >= 1, "tree needs at least one position");
  SPB_REQUIRE(root_pos >= 0 && root_pos < n, "root out of range");
  // With a single source, every segment of the halving recursion holds
  // exactly one active position a: it pairs with a + h or a - h, or, as an
  // odd segment's unpaired h - 1, pushes to h.  That sends to the other
  // half, which thereby holds exactly one active position too.  So no
  // schedule is needed: following the segments that contain `pos` from
  // the top gives its parent (the active position that sends to it) and
  // then, one per level, its children in send order.
  BcastTree t;
  t.root = root_pos;
  t.parent.assign(static_cast<std::size_t>(n), -1);
  t.first_.reserve(static_cast<std::size_t>(n) + 1);
  t.kids_.reserve(static_cast<std::size_t>(n) - 1);
  for (int pos = 0; pos < n; ++pos) {
    t.first_.push_back(t.kids_.size());
    int lo = 0;
    int len = n;
    int active = root_pos;
    while (len > 1) {
      const int h = static_cast<int>(ceil_div(len, 2));
      const int i = active - lo;
      const int target = i < len - h ? active + h
                         : i >= h    ? active - h
                                     : lo + h;  // odd segment's push
      if (pos == active) {
        t.kids_.push_back(target);
      } else if (pos == target) {
        t.parent[static_cast<std::size_t>(pos)] = active;
      }
      // Descend into the half holding pos; its active position is
      // whichever of active and target lies in it.
      const bool lower = pos < lo + h;
      if (lower != (active < lo + h)) active = target;
      if (lower) {
        len = h;
      } else {
        lo += h;
        len -= h;
      }
    }
  }
  t.first_.push_back(t.kids_.size());
  return t;
}

BcastTree BcastTree::binary(int n, int root_pos) {
  SPB_REQUIRE(n >= 1, "tree needs at least one position");
  SPB_REQUIRE(root_pos >= 0 && root_pos < n, "root out of range");
  // Heap-shaped tree over logical indices 0..n-1, with the positions
  // rotated so logical 0 is the root position: logical j sits at position
  // (j + root_pos) % n and has the logical children 2j + 1 and 2j + 2.
  BcastTree t;
  t.root = root_pos;
  t.parent.assign(static_cast<std::size_t>(n), -1);
  t.first_.reserve(static_cast<std::size_t>(n) + 1);
  t.kids_.reserve(static_cast<std::size_t>(n) - 1);
  for (int pos = 0; pos < n; ++pos) {
    t.first_.push_back(t.kids_.size());
    const int j = (pos - root_pos + n) % n;
    for (int c = 2 * j + 1; c <= 2 * j + 2 && c < n; ++c) {
      const int child_pos = (c + root_pos) % n;
      t.kids_.push_back(child_pos);
      t.parent[static_cast<std::size_t>(child_pos)] = pos;
    }
  }
  t.first_.push_back(t.kids_.size());
  return t;
}

sim::Task pipelined_bcast(mp::Comm& comm,
                          std::shared_ptr<const std::vector<Rank>> seq,
                          int my_pos, std::shared_ptr<const BcastTree> tree,
                          mp::Payload& data, Bytes total_wire,
                          Bytes segment_bytes) {
  SPB_REQUIRE(seq != nullptr && tree != nullptr,
              "pipelined_bcast needs a sequence and a tree");
  SPB_REQUIRE(segment_bytes > 0, "segment size must be positive");
  SPB_REQUIRE(total_wire > 0, "broadcast size must be positive");
  const int n = static_cast<int>(seq->size());
  SPB_REQUIRE(my_pos >= 0 && my_pos < n, "position out of range");
  if (n == 1) co_return;

  const int segments = static_cast<int>(
      ceil_div(static_cast<std::int64_t>(total_wire),
               static_cast<std::int64_t>(segment_bytes)));
  const Bytes seg_wire = static_cast<Bytes>(ceil_div(
      static_cast<std::int64_t>(total_wire), segments));

  const std::span<const int> children = tree->children(my_pos);
  const int parent = tree->parent[static_cast<std::size_t>(my_pos)];
  const bool am_root = my_pos == tree->root;
  SPB_CHECK(am_root == (parent == -1));

  for (int k = 0; k < segments; ++k) {
    const bool last = k == segments - 1;
    if (!am_root) {
      mp::Message m = co_await comm.recv(
          (*seq)[static_cast<std::size_t>(parent)], mp::tags::kData);
      if (last) {
        // The final segment carries the payload; a broadcast lands in its
        // destination buffer, so no combining cost — dedup only collapses
        // a source rank's own chunk with the broadcast copy of it.
        data.merge_dedup(m.payload);
      }
    }
    // Earlier segments are timing-bearing filler; the payload rides last.
    for (const int child : children) {
      // Named local, not a ternary temporary in the co_await expression:
      // GCC 12 destroys conditional-expression argument temporaries of a
      // suspended call twice (frame teardown + statement end).
      mp::Payload outgoing;
      if (last) outgoing = data;
      co_await comm.send_sized((*seq)[static_cast<std::size_t>(child)],
                               std::move(outgoing), seg_wire,
                               mp::tags::kData);
    }
    comm.mark_iteration();
  }
}

}  // namespace spb::coll
