#include "mp/schedule.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "mp/mailbox.h"
#include "mp/message.h"
#include "mp/payload.h"

namespace spb::mp {

namespace {

/// Pool offsets are 32-bit; a schedule never comes near 2^32 chunks.
std::uint32_t pool_offset(std::size_t n) {
  SPB_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                "schedule chunk pool overflow");
  return static_cast<std::uint32_t>(n);
}

}  // namespace

std::string Schedule::describe(const ScheduleOp& op) const {
  std::ostringstream os;
  os << "rank " << op.rank << " step " << op.step << ": ";
  if (op.is_send()) {
    os << "send(dst=" << op.peer << ", tag=" << op.tag << ", "
       << op.wire_bytes << "B";
  } else {
    os << "recv(src=";
    if (op.peer == kAnySource) {
      os << "any";
    } else {
      os << op.peer;
    }
    os << ", tag=";
    if (op.tag == kAnyTag) {
      os << "any";
    } else {
      os << op.tag;
    }
  }
  const std::span<const Rank> chunks = chunk_sources(op);
  if (!chunks.empty()) {
    os << ", chunks={";
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (i > 0) os << ",";
      os << chunks[i];
    }
    os << "}";
  }
  os << ")";
  if (op.is_recv() && !op.completed) os << " [never completed]";
  return os.str();
}

Schedule::Schedule(int rank_count) : rank_count_(rank_count) {
  SPB_REQUIRE(rank_count >= 1, "schedule needs >= 1 rank");
  next_step_.assign(static_cast<std::size_t>(rank_count), 0);
  rank_begin_.assign(static_cast<std::size_t>(rank_count) + 1, 0);
}

Schedule Schedule::from_ops(int rank_count, std::vector<OpDraft> ops) {
  Schedule s(rank_count);
  // Old id -> new id (-1 for ids not present any more).
  int max_old = -1;
  for (const OpDraft& op : ops) max_old = std::max(max_old, op.id);
  std::vector<int> remap(static_cast<std::size_t>(max_old + 1), -1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    SPB_REQUIRE(ops[i].rank >= 0 && ops[i].rank < rank_count,
                "op rank " << ops[i].rank << " outside 0.." << rank_count - 1);
    SPB_REQUIRE(ops[i].id >= 0, "op " << i << " has no id; assign distinct "
                                      << "ids before from_ops()");
    SPB_REQUIRE(
        ops[i].is_recv() || (ops[i].peer >= 0 && ops[i].peer < rank_count),
        "send op " << i << " to rank " << ops[i].peer << " outside 0.."
                   << rank_count - 1);
    remap[static_cast<std::size_t>(ops[i].id)] = static_cast<int>(i);
  }
  s.ops_.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ScheduleOp op = ops[i];
    op.id = static_cast<int>(i);
    op.step = s.next_step_[static_cast<std::size_t>(op.rank)]++;
    op.chunk_begin = pool_offset(s.chunks_.size());
    op.chunk_count = pool_offset(ops[i].chunk_sources.size());
    s.chunks_.insert(s.chunks_.end(), ops[i].chunk_sources.begin(),
                     ops[i].chunk_sources.end());
    if (op.match >= 0) {
      // Ids past the table belonged to removed ops (the highest id left
      // with them), so they remap to -1 like any other removed id.
      const auto old = static_cast<std::size_t>(op.match);
      op.match = old < remap.size() ? remap[old] : -1;
      // A recv whose matched send was removed is no longer completed: the
      // static checks must re-derive its fate.
      if (op.match < 0 && op.is_recv()) op.completed = false;
    }
    s.ops_.push_back(op);
  }
  s.index_ranks();
  return s;
}

OpDraft Schedule::draft(int id) const {
  const ScheduleOp& o = op(id);
  const std::span<const Rank> chunks = chunk_sources(o);
  return OpDraft{o, std::vector<Rank>(chunks.begin(), chunks.end())};
}

std::span<const int> Schedule::ops_of_rank(Rank r) const {
  SPB_REQUIRE(r >= 0 && r < rank_count_, "rank " << r << " out of range");
  SPB_REQUIRE(rank_ops_.size() == ops_.size(),
              "ops_of_rank() before the schedule's ranks were indexed");
  const auto i = static_cast<std::size_t>(r);
  return std::span<const int>(rank_ops_).subspan(
      static_cast<std::size_t>(rank_begin_[i]),
      static_cast<std::size_t>(rank_begin_[i + 1] - rank_begin_[i]));
}

void Schedule::index_ranks() {
  if (rank_count_ == 0) return;
  // Steps number each rank's ops 0, 1, 2, ..., so a rank's op count is
  // its next step, the offsets are their prefix sums, and an op's slot is
  // its rank's offset plus its step.
  for (std::size_t r = 0; r < next_step_.size(); ++r)
    rank_begin_[r + 1] = rank_begin_[r] + next_step_[r];
  rank_ops_.resize(ops_.size());
  for (const ScheduleOp& op : ops_)
    rank_ops_[static_cast<std::size_t>(
        rank_begin_[static_cast<std::size_t>(op.rank)] + op.step)] = op.id;
}

int Schedule::record_send(Rank rank, Rank dst, int tag, Bytes wire_bytes,
                          const Payload& payload) {
  ScheduleOp op;
  op.kind = ScheduleOp::Kind::kSend;
  op.id = static_cast<int>(ops_.size());
  op.rank = rank;
  op.step = next_step_[static_cast<std::size_t>(rank)]++;
  op.peer = dst;
  op.tag = tag;
  op.wire_bytes = wire_bytes;
  pool_chunks(op, payload);
  ops_.push_back(op);
  return op.id;
}

int Schedule::record_recv_post(Rank rank, Rank src_filter, int tag_filter) {
  ScheduleOp op;
  op.kind = ScheduleOp::Kind::kRecv;
  op.id = static_cast<int>(ops_.size());
  op.rank = rank;
  op.step = next_step_[static_cast<std::size_t>(rank)]++;
  op.peer = src_filter;
  op.tag = tag_filter;
  ops_.push_back(op);
  return op.id;
}

void Schedule::record_recv_match(int recv_id, int send_id, Bytes wire_bytes,
                                 const Payload& payload) {
  SPB_REQUIRE(recv_id >= 0 && recv_id < static_cast<int>(ops_.size()),
              "recv op " << recv_id << " out of range");
  ScheduleOp& recv = ops_[static_cast<std::size_t>(recv_id)];
  SPB_CHECK(recv.is_recv());
  recv.completed = true;
  recv.match = send_id;
  recv.wire_bytes = wire_bytes;
  if (send_id < 0) {
    pool_chunks(recv, payload);
    return;
  }
  ScheduleOp& send = ops_[static_cast<std::size_t>(send_id)];
  SPB_CHECK(send.is_send());
  SPB_CHECK_MSG(send.match < 0, "send op " << send_id << " consumed twice");
  SPB_CHECK(send.chunk_count == payload.chunk_count() &&
            send.payload_bytes == payload.total_bytes());
  send.match = recv_id;
  // The message is the send's payload itself: share its pool range.
  recv.chunk_begin = send.chunk_begin;
  recv.chunk_count = send.chunk_count;
  recv.payload_bytes = send.payload_bytes;
}

void Schedule::pool_chunks(ScheduleOp& op, const Payload& payload) {
  op.chunk_begin = pool_offset(chunks_.size());
  op.chunk_count = pool_offset(payload.chunk_count());
  for (const Chunk& c : payload.chunks()) chunks_.push_back(c.source);
  op.payload_bytes = payload.total_bytes();
}

}  // namespace spb::mp
