// Symbolic communication-schedule recording.
//
// When enabled on a Runtime, every send and every posted receive is
// recorded as a ScheduleOp — who, to/from whom, which tag, which source
// chunks, and at which per-rank program step — together with the match
// edge (which send a receive actually consumed).  Unlike mp::Trace, which
// captures *timing*, a Schedule captures the *logical* communication
// structure, so it can be checked statically without advancing the
// simulator: send/recv matching, deadlock-freedom of the wait-for graph,
// chunk coverage, and round/volume bounds (see src/analyze).
//
// Recv ops are recorded when the receive is *posted*, not when it
// completes; a receive that never matches (a deadlocked program) is still
// in the schedule, flagged as incomplete — which is exactly what the
// static deadlock analysis needs.
//
// Storage is flat: the ops sit in one vector, every op's chunk sources in
// one schedule-wide pool (an op holds a range of it; a matched receive
// shares its send's range, since it delivered that very payload), and the
// per-rank program order is one CSR index built when recording ends
// (index_ranks).  Recording an op therefore costs no allocation beyond
// the geometric growth of those vectors.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace spb::mp {

class Payload;

struct ScheduleOp {
  enum class Kind { kSend, kRecv };

  Kind kind = Kind::kSend;
  /// Index of this op in Schedule::ops(); stable identifier for match
  /// edges and reports.
  int id = -1;
  /// The rank that issued the operation.
  Rank rank = kNoRank;
  /// Program step of the op on its rank: 0, 1, 2, ... over that rank's
  /// sends and receive posts, in program order.
  int step = -1;
  /// kSend: destination rank.  kRecv: source filter (kAnySource allowed).
  Rank peer = kNoRank;
  /// kSend: message tag.  kRecv: tag filter (kAnyTag allowed).
  int tag = 0;
  /// kSend: bytes on the wire.  kRecv: wire size of the matched message
  /// (0 while unmatched).
  Bytes wire_bytes = 0;
  /// The op's range of its schedule's chunk pool: the source ranks of the
  /// chunks carried (kSend) or delivered (kRecv, matched), read through
  /// Schedule::chunk_sources.  Empty for sized filler segments, which move
  /// bytes only.
  std::uint32_t chunk_begin = 0;
  std::uint32_t chunk_count = 0;
  /// Payload bytes summed over the carried chunks (the wire size also
  /// counts envelope and filler bytes).
  Bytes payload_bytes = 0;
  /// kSend: id of the recv op that consumed this message (-1 = never
  /// received).  kRecv: id of the matched send (-1 = never matched).
  int match = -1;
  /// kRecv only: the receive completed during the recorded run.
  bool completed = false;

  bool is_send() const { return kind == Kind::kSend; }
  bool is_recv() const { return kind == Kind::kRecv; }
};

/// An op outside any schedule, owning its chunk list: what from_ops()
/// takes, so hand-made and mutated schedules name their chunks directly.
/// The inherited chunk range is ignored; from_ops() pools `chunk_sources`.
struct OpDraft : ScheduleOp {
  std::vector<Rank> chunk_sources;
};

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(int rank_count);

  /// Builds a schedule from an op list (hand-made, or transformed by the
  /// mutation harness in src/analyze).  Ops keep their relative order;
  /// ids, steps and match edges are recomputed/remapped, with match edges
  /// to removed ops cleared.
  static Schedule from_ops(int rank_count, std::vector<OpDraft> ops);

  int rank_count() const { return rank_count_; }
  bool empty() const { return ops_.empty(); }
  std::size_t size() const { return ops_.size(); }
  const std::vector<ScheduleOp>& ops() const { return ops_; }
  const ScheduleOp& op(int id) const { return ops_[static_cast<std::size_t>(id)]; }

  /// Source ranks of the chunks an op carries (kSend) or received (kRecv).
  std::span<const Rank> chunk_sources(const ScheduleOp& op) const {
    return std::span<const Rank>(chunks_).subspan(op.chunk_begin,
                                                  op.chunk_count);
  }

  /// Op `id` with its own copy of its chunk list, ready for from_ops().
  OpDraft draft(int id) const;

  /// Ids of one rank's ops, in program order.  Needs the rank index: a
  /// schedule out of from_ops() has it, a recording gets it when its run
  /// ends (Runtime::run calls index_ranks).
  std::span<const int> ops_of_rank(Rank r) const;

  /// "rank 3 step 2: send(dst=7, tag=0, 4128B, chunks={0,5})" — reports.
  std::string describe(const ScheduleOp& op) const;

  // --- recording hooks (called by mp::Runtime) -------------------------

  /// Records a send of `payload`; returns its op id.
  int record_send(Rank rank, Rank dst, int tag, Bytes wire_bytes,
                  const Payload& payload);

  /// Records a posted receive (not yet matched); returns its op id.
  int record_recv_post(Rank rank, Rank src_filter, int tag_filter);

  /// Marks recv op `recv_id` as completed by send op `send_id` (-1 when
  /// the consumed message predates recording) and fills in what arrived:
  /// `payload`, whose chunks are the matched send's own.
  void record_recv_match(int recv_id, int send_id, Bytes wire_bytes,
                         const Payload& payload);

  /// Builds the per-rank index ops_of_rank reads (one counting pass over
  /// the ops).  Called once recording is over.
  void index_ranks();

 private:
  /// Appends the payload's chunk sources to the pool as `op`'s range.
  void pool_chunks(ScheduleOp& op, const Payload& payload);

  int rank_count_ = 0;
  std::vector<ScheduleOp> ops_;
  std::vector<Rank> chunks_;       // every op's chunk sources, op ranges
  std::vector<int> next_step_;     // per rank: step of its next op
  std::vector<int> rank_begin_;    // rank r: rank_ops_[begin[r], begin[r+1])
  std::vector<int> rank_ops_;      // op ids grouped by rank, program order
};

}  // namespace spb::mp
