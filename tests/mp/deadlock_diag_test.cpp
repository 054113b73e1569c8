#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mp/runtime.h"
#include "net/topology.h"

// Deadlock diagnostics: when the simulation drains with rank programs
// still suspended, the DeadlockError must name each stuck rank, the
// receive filter it is parked on (source and, when pinned, tag), and
// whether non-matching messages were sitting in its mailbox — enough to
// spot a wrong-tag or wrong-peer receive from the report alone.

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

sim::Task idle(Comm&) { co_return; }

sim::Task send_tagged(Comm& comm, Rank dst, int tag) {
  co_await comm.send(dst, Payload::original(comm.rank(), 100), tag);
}

sim::Task recv_tagged(Comm& comm, Rank src, int tag) {
  (void)co_await comm.recv(src, tag);
}

std::string deadlock_message(Runtime& rt) {
  try {
    rt.run();
  } catch (const DeadlockError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected DeadlockError";
  return {};
}

TEST(DeadlockDiag, WrongTagNamesTagAndParkedMessage) {
  // The sender uses kData but the receiver waits for kExchange: the
  // message arrives, sits in the mailbox, and the receive starves.
  Runtime rt = make_runtime(2);
  rt.spawn(0, send_tagged(rt.comm(0), 1, tags::kData));
  rt.spawn(1, recv_tagged(rt.comm(1), 0, tags::kExchange));
  const std::string what = deadlock_message(rt);
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("recv(0, tag=1)"), std::string::npos) << what;
  EXPECT_NE(what.find("1 non-matching message(s) sit in its mailbox"),
            std::string::npos)
      << what;
}

TEST(DeadlockDiag, WrongPeerShowsEmptyMailbox) {
  // Receiver waits on rank 1, which never sends: no parked messages, so
  // the report must not claim any.
  Runtime rt = make_runtime(3);
  rt.spawn(0, recv_tagged(rt.comm(0), 1, tags::kData));
  rt.spawn(1, idle(rt.comm(1)));
  rt.spawn(2, idle(rt.comm(2)));
  const std::string what = deadlock_message(rt);
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("recv(1, tag=0)"), std::string::npos) << what;
  EXPECT_EQ(what.find("non-matching"), std::string::npos) << what;
}

TEST(DeadlockDiag, UntaggedFilterOmitsTag) {
  Runtime rt = make_runtime(2);
  rt.spawn(0, [](Comm& c) -> sim::Task { (void)co_await c.recv(1); }
                  (rt.comm(0)));
  rt.spawn(1, idle(rt.comm(1)));
  const std::string what = deadlock_message(rt);
  EXPECT_NE(what.find("recv(1)"), std::string::npos) << what;
  EXPECT_EQ(what.find("tag="), std::string::npos) << what;
}

TEST(DeadlockDiag, RecordedScheduleKeepsTheHangingRecv) {
  // With recording on, the starved receive is in the schedule as an
  // incomplete op — what the static analyzer needs to report the hang.
  Runtime rt = make_runtime(2);
  rt.enable_schedule_recording();
  rt.spawn(0, send_tagged(rt.comm(0), 1, tags::kData));
  rt.spawn(1, recv_tagged(rt.comm(1), 0, tags::kExchange));
  (void)deadlock_message(rt);
  const Schedule& sched = rt.schedule();
  ASSERT_EQ(sched.ops_of_rank(1).size(), 1u);
  const ScheduleOp& recv = sched.op(sched.ops_of_rank(1).front());
  EXPECT_TRUE(recv.is_recv());
  EXPECT_FALSE(recv.completed);
  EXPECT_EQ(recv.tag, tags::kExchange);
  EXPECT_NE(sched.describe(recv).find("[never completed]"), std::string::npos);
}

}  // namespace
}  // namespace spb::mp
