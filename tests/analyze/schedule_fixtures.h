// Schedule fixtures shared by the analyzer and model-checker tests: op
// builders for hand-made schedules, and one recorded real run.
#pragma once

#include <utility>
#include <vector>

#include "analyze/record.h"
#include "common/check.h"
#include "common/types.h"
#include "machine/config.h"
#include "mp/schedule.h"
#include "stop/algorithm.h"
#include "stop/problem.h"

namespace spb::fixtures {

inline mp::OpDraft send_op(int id, Rank rank, Rank dst, int tag,
                           Bytes wire, std::vector<Rank> chunks,
                           Bytes payload) {
  mp::OpDraft op;
  op.kind = mp::ScheduleOp::Kind::kSend;
  op.id = id;
  op.rank = rank;
  op.peer = dst;
  op.tag = tag;
  op.wire_bytes = wire;
  op.chunk_sources = std::move(chunks);
  op.payload_bytes = payload;
  return op;
}

/// A posted receive with no recorded match.
inline mp::OpDraft recv_op(int id, Rank rank, Rank src, int tag) {
  mp::OpDraft op;
  op.kind = mp::ScheduleOp::Kind::kRecv;
  op.id = id;
  op.rank = rank;
  op.peer = src;
  op.tag = tag;
  return op;
}

/// A 1024-byte send of the sender's own chunk, recorded as consumed by
/// receive `match` (-1 = never consumed).
inline mp::OpDraft send_op(int id, Rank from, Rank to, int tag,
                           int match) {
  mp::OpDraft op = send_op(id, from, to, tag, 1024, {from}, 1000);
  op.match = match;
  return op;
}

/// A receive recorded as completed against send `match` (-1 = it never
/// completed).
inline mp::OpDraft recv_op(int id, Rank at, Rank peer, int tag,
                           int match) {
  mp::OpDraft op = recv_op(id, at, peer, tag);
  op.match = match;
  op.completed = match >= 0;
  if (match >= 0) {
    op.wire_bytes = 1024;
    op.payload_bytes = 1000;
  }
  return op;
}

struct Recorded {
  stop::Problem pb;
  mp::Schedule schedule;
};

/// 2-Step on a 4x4 Paragon, 4 row sources: fully tag-pinned, so every
/// mutation has eligible ops.  Recorded once per test binary.
inline const Recorded& recorded_two_step() {
  static const Recorded r = [] {
    const stop::AlgorithmPtr alg = stop::find_algorithm("2-Step");
    stop::Problem pb = stop::make_problem(machine::paragon(4, 4),
                                          dist::Kind::kRow, 4, 2048);
    analyze::RecordedRun run = analyze::record_run(*alg, pb);
    SPB_CHECK_MSG(run.completed, run.failure);
    return Recorded{std::move(pb), std::move(run.schedule)};
  }();
  return r;
}

}  // namespace spb::fixtures
