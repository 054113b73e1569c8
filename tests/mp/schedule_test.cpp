#include "mp/schedule.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "mp/runtime.h"
#include "net/topology.h"

// Schedule recording on a live Runtime: ops, steps, match edges and the
// from_ops() rebuild used by the mutation harness.

namespace spb::mp {
namespace {

Runtime make_runtime(int p) {
  net::NetParams np;
  np.alpha_us = 1.0;
  np.per_hop_us = 0.1;
  np.bytes_per_us = 1000.0;
  CommParams cp;
  cp.send_overhead_us = 2.0;
  cp.recv_overhead_us = 3.0;
  cp.header_bytes = 16;
  cp.chunk_header_bytes = 4;
  return Runtime(std::make_shared<net::LinearArray>(p), np, cp,
                 net::RankMapping::identity(p));
}

sim::Task send_program(Comm& comm, Rank dst, Bytes bytes, int tag) {
  co_await comm.send(dst, Payload::original(comm.rank(), bytes), tag);
}

sim::Task recv_program(Comm& comm, Rank src, int tag) {
  (void)co_await comm.recv(src, tag);
}

TEST(ScheduleRecording, PingPongRecordsMatchedPair) {
  Runtime rt = make_runtime(2);
  rt.enable_schedule_recording();
  ASSERT_TRUE(rt.schedule_recording());
  rt.spawn(0, send_program(rt.comm(0), 1, 1000, tags::kData));
  rt.spawn(1, recv_program(rt.comm(1), 0, tags::kData));
  rt.run();

  const Schedule& sched = rt.schedule();
  ASSERT_EQ(sched.size(), 2u);
  const ScheduleOp& send = sched.op(sched.ops_of_rank(0).front());
  const ScheduleOp& recv = sched.op(sched.ops_of_rank(1).front());
  EXPECT_TRUE(send.is_send());
  EXPECT_EQ(send.peer, 1);
  EXPECT_EQ(send.tag, tags::kData);
  EXPECT_EQ(send.wire_bytes, 1020u);  // 16 header + 4 chunk + 1000
  EXPECT_EQ(std::vector<Rank>(sched.chunk_sources(send).begin(),
                              sched.chunk_sources(send).end()),
            std::vector<Rank>{0});
  EXPECT_EQ(send.payload_bytes, 1000u);
  EXPECT_TRUE(recv.is_recv());
  EXPECT_TRUE(recv.completed);
  EXPECT_EQ(recv.match, send.id);
  EXPECT_EQ(send.match, recv.id);
  EXPECT_EQ(recv.wire_bytes, send.wire_bytes);
  // The receive shares its send's range of the chunk pool.
  EXPECT_EQ(recv.chunk_begin, send.chunk_begin);
  EXPECT_EQ(recv.chunk_count, send.chunk_count);
  EXPECT_EQ(recv.payload_bytes, send.payload_bytes);
}

sim::Task recv_twice(Comm& comm, Rank src) {
  (void)co_await comm.recv(src);
  (void)co_await comm.recv(src);
}

sim::Task send_twice(Comm& comm, Rank dst) {
  co_await comm.send(dst, Payload::original(comm.rank(), 10));
  co_await comm.send(dst, Payload::original(comm.rank(), 20));
}

TEST(ScheduleRecording, PerRankStepsAreSequential) {
  Runtime rt = make_runtime(2);
  rt.enable_schedule_recording();
  rt.spawn(0, send_twice(rt.comm(0), 1));
  rt.spawn(1, recv_twice(rt.comm(1), 0));
  rt.run();
  const Schedule& sched = rt.schedule();
  ASSERT_EQ(sched.ops_of_rank(0).size(), 2u);
  ASSERT_EQ(sched.ops_of_rank(1).size(), 2u);
  EXPECT_EQ(sched.op(sched.ops_of_rank(0)[0]).step, 0);
  EXPECT_EQ(sched.op(sched.ops_of_rank(0)[1]).step, 1);
  // FIFO per pair: first recv consumed the first (10-byte) send.
  const ScheduleOp& first_recv = sched.op(sched.ops_of_rank(1)[0]);
  EXPECT_EQ(first_recv.match, sched.ops_of_rank(0)[0]);
}

TEST(ScheduleRecording, DisabledByDefaultAndOneShot) {
  Runtime rt = make_runtime(2);
  EXPECT_FALSE(rt.schedule_recording());
  rt.spawn(0, send_program(rt.comm(0), 1, 10, tags::kData));
  rt.spawn(1, recv_program(rt.comm(1), 0, tags::kData));
  rt.run();
  EXPECT_TRUE(rt.schedule().empty());
  // Too late to turn on after the run.
  EXPECT_THROW(rt.enable_schedule_recording(), CheckError);
}

// Two sends far apart: the receiver posts its second recv before the
// second send exists, so that send is the last op recorded.
sim::Task send_twice_apart(Comm& comm, Rank dst) {
  co_await comm.send(dst, Payload::original(comm.rank(), 10));
  co_await comm.compute(100.0);
  co_await comm.send(dst, Payload::original(comm.rank(), 20));
}

TEST(ScheduleRecording, FromOpsRemapsMatchEdges) {
  Runtime rt = make_runtime(2);
  rt.enable_schedule_recording();
  rt.spawn(0, send_twice_apart(rt.comm(0), 1));
  rt.spawn(1, recv_twice(rt.comm(1), 0));
  rt.run();

  // Drop either send — the first, or the one holding the highest op id
  // (whose id then lies past the rebuilt remap table).  Its recv must lose
  // completion, and the other pair's match edge must survive the
  // renumbering.
  const std::vector<ScheduleOp>& ops = rt.schedule().ops();
  ASSERT_TRUE(ops.back().is_send());
  for (const int dropped : {rt.schedule().ops_of_rank(0)[0], ops.back().id}) {
    std::vector<OpDraft> kept;
    for (const ScheduleOp& op : ops)
      if (op.id != dropped) kept.push_back(rt.schedule().draft(op.id));
    const Schedule rebuilt = Schedule::from_ops(2, std::move(kept));
    ASSERT_EQ(rebuilt.size(), 3u);
    int completed = 0;
    int uncompleted = 0;
    for (const ScheduleOp& op : rebuilt.ops()) {
      if (!op.is_recv()) continue;
      if (op.completed) {
        ++completed;
        const ScheduleOp& partner = rebuilt.op(op.match);
        EXPECT_TRUE(partner.is_send());
        EXPECT_EQ(partner.match, op.id);
      } else {
        ++uncompleted;
        EXPECT_EQ(op.match, -1);
      }
    }
    EXPECT_EQ(completed, 1) << "dropped op " << dropped;
    EXPECT_EQ(uncompleted, 1) << "dropped op " << dropped;
  }
}

}  // namespace
}  // namespace spb::mp
