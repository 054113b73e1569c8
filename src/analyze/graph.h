// The schedule graph both static checkers read: wait-for edges, cycle
// finder, Kahn order, the two depth measures and the (src, dst, tag)
// channel index of one mp::Schedule.
//
// An op waits on at most two others: the previous op of its rank and, for
// a receive, the send it consumes.  So the wait-for graph is just the
// schedule's program order plus one recv -> send matching.  src/analyze
// fills that matching by re-deriving it from the filters; src/verify takes
// the recorded match edges as given and proves them (recorded()).
//
// The channel index groups every send by its (src, dst, tag) channel, in
// issue order.  The mailbox delivers each channel FIFO, so this is what
// the analyzer's matching, verify's FIFO proof and the explorer's message
// classes all key on.
#pragma once

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "mp/schedule.h"

namespace spb::analyze {

/// One message channel: the mailbox delivers it in send order.
struct Channel {
  Rank src = kNoRank;
  Rank dst = kNoRank;
  int tag = 0;
};

class ScheduleGraph {
 public:
  /// Indexes the schedule's channels.  No match edges yet: the only
  /// wait-for edges are program order.  Keeps a reference to `schedule`.
  explicit ScheduleGraph(const mp::Schedule& schedule);

  /// The graph of the recorded matching: every receive whose recorded
  /// match names a send waits on that send.
  static ScheduleGraph recorded(const mp::Schedule& schedule);

  const mp::Schedule& schedule() const { return *schedule_; }

  // --- channel index ----------------------------------------------------

  int channel_count() const { return static_cast<int>(channels_.size()); }
  const Channel& channel(int c) const {
    return channels_[static_cast<std::size_t>(c)];
  }
  /// The channel's sends, in issue order.
  std::span<const int> channel_sends(int c) const;
  /// The channel a send travels on; -1 for a receive.
  int channel_of(int op) const {
    return channel_of_[static_cast<std::size_t>(op)];
  }
  /// Id of channel (src, dst, tag), or -1 when no send uses it.
  int find_channel(Rank src, Rank dst, int tag) const;
  /// Channels into `dst`, as the id range [first, last) ordered by
  /// (src, tag).
  std::pair<int, int> channels_into(Rank dst) const;

  // --- matching: the wait-for edges beyond program order ----------------

  /// Adds the edge recv -> send: the receive waits on the send.
  void match(int recv, int send);
  /// The send a receive waits on; -1 when unmatched (and for sends).
  int source_of(int recv) const {
    return source_[static_cast<std::size_t>(recv)];
  }
  /// The receive that consumes a send; -1 when none (and for receives).
  int consumer_of(int send) const {
    return consumer_[static_cast<std::size_t>(send)];
  }

  // --- wait-for analysis ------------------------------------------------

  /// Kahn order over the wait-for edges; partial (shorter than the
  /// schedule) exactly when the graph has a cycle.
  std::vector<int> topological_order() const;
  /// One wait-for cycle as op ids, each waiting on the next and the last
  /// on the first; empty when the graph is acyclic.
  std::vector<int> find_cycle() const;

  /// Message rounds.  A send's level is one more than the highest level
  /// its rank has received before it; a receive's level is 0.  The
  /// maximum is the schedule's round count, the measure the
  /// ceil(log2(p/s)) doubling bound applies to.  Levels of ops outside a
  /// partial `order` stay 0.
  std::vector<int> message_levels(std::span<const int> order) const;
  /// Op chain: the longest wait-for chain, counted in ops.  On an
  /// eager-send exchange (both ranks send, then receive) the rounds are 1
  /// and the op chain is 2.  `order` must be a full topological order.
  int op_chain_depth(std::span<const int> order) const;

 private:
  /// The ops `id` waits on: its rank's previous op, then its matched
  /// send; -1 where there is none.
  std::array<int, 2> waits_on(int id) const;

  const mp::Schedule* schedule_;
  std::vector<Channel> channels_;     // sorted by (dst, src, tag)
  std::vector<int> channel_begin_;    // channel c: sends_[begin[c], begin[c+1])
  std::vector<int> sends_;            // send ids grouped by channel
  std::vector<int> channel_of_;       // per op
  std::vector<int> source_;           // per op: recv -> matched send
  std::vector<int> consumer_;         // per op: send -> consuming recv
};

}  // namespace spb::analyze
