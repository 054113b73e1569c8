#include "mp/runtime.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "fault/fault.h"
#include "net/topology.h"

// NOTE: rank programs are written as free coroutine functions, never as
// capturing lambdas — a lambda's closure dies at the end of the spawning
// full-expression while the coroutine lives on (the captures would
// dangle).  Reference parameters are fine: the referents are locals of the
// test body, which outlives run().

namespace spb::mp {
namespace {

net::NetParams fast_net() {
  net::NetParams p;
  p.alpha_us = 1.0;
  p.per_hop_us = 0.1;
  p.bytes_per_us = 1000.0;
  return p;
}

CommParams plain_comm() {
  CommParams c;
  c.send_overhead_us = 2.0;
  c.recv_overhead_us = 3.0;
  c.combine_fixed_us = 1.0;
  c.combine_per_byte_us = 0.001;
  c.header_bytes = 16;
  c.chunk_header_bytes = 4;
  c.mpi_extra_us = 0.0;
  return c;
}

Runtime make_runtime(int p, CommParams cp = plain_comm()) {
  return Runtime(std::make_shared<net::LinearArray>(p), fast_net(), cp,
                 net::RankMapping::identity(p));
}

// Every Comm and the installed delivery hook point at their runtime, so a
// runtime is built in place (helpers return prvalues) and never moves.
static_assert(!std::is_copy_constructible_v<Runtime> &&
              !std::is_move_constructible_v<Runtime>);

sim::Task idle_program(Comm&) { co_return; }

sim::Task send_one(Comm& comm, Rank dst, Bytes bytes, double pre_delay,
                   int tag) {
  if (pre_delay > 0) co_await comm.compute(pre_delay);
  Payload p = Payload::original(comm.rank(), bytes);
  co_await comm.send(dst, std::move(p), tag);
}

sim::Task recv_one(Comm& comm, Rank src, Payload& got, SimTime& done_at,
                   double pre_delay) {
  if (pre_delay > 0) co_await comm.compute(pre_delay);
  Message m = co_await comm.recv(src);
  got = std::move(m.payload);
  done_at = comm.now();
}

TEST(Runtime, PingPongDeliversPayload) {
  Runtime rt = make_runtime(2);
  Payload got;
  SimTime recv_done = -1;
  rt.spawn(0, send_one(rt.comm(0), 1, 1000, 0, tags::kData));
  rt.spawn(1, recv_one(rt.comm(1), 0, got, recv_done, 0));
  const RunOutcome out = rt.run();
  EXPECT_EQ(got, Payload::original(0, 1000));
  // wire = 16 + 4 + 1000 = 1020 bytes; injection ready at 2 (send
  // overhead); arrive = 2 + 1 (alpha) + 0.1 (hop) + 1.02 (serialize);
  // plus 3 of receive overhead.
  EXPECT_NEAR(recv_done, 2 + 1 + 0.1 + 1.02 + 3, 1e-9);
  EXPECT_NEAR(out.makespan_us, recv_done, 1e-9);
  EXPECT_EQ(out.metrics.total_sends, 1u);
  EXPECT_EQ(out.metrics.total_recvs, 1u);
}

sim::Task send_then_stamp(Comm& comm, Rank dst, Bytes bytes,
                          SimTime& resumed_at) {
  Payload p = Payload::original(comm.rank(), bytes);
  co_await comm.send(dst, std::move(p));
  resumed_at = comm.now();
}

sim::Task recv_discard(Comm& comm, Rank src) { (void)co_await comm.recv(src); }

TEST(Runtime, SenderResumesAtInjectDone) {
  Runtime rt = make_runtime(2);
  SimTime sender_resumed = -1;
  rt.spawn(0, send_then_stamp(rt.comm(0), 1, 1000, sender_resumed));
  rt.spawn(1, recv_discard(rt.comm(1), 0));
  rt.run();
  // The sender is released when injection completes (2 + 1.02), well
  // before the receiver finishes.
  EXPECT_NEAR(sender_resumed, 2 + 1.02, 1e-9);
}

sim::Task exchange_program(Comm& comm, Rank peer, int& ok_count) {
  co_await comm.send(peer, Payload::original(comm.rank(), 64));
  Message m = co_await comm.recv(peer);
  if (m.payload.has_source(peer)) ++ok_count;
}

TEST(Runtime, EagerSendsDontNeedPostedReceives) {
  // Both ranks send first, then receive: the classic pairwise exchange.
  // Eager buffering makes it deadlock-free by construction.
  Runtime rt = make_runtime(2);
  int exchanged = 0;
  rt.spawn(0, exchange_program(rt.comm(0), 1, exchanged));
  rt.spawn(1, exchange_program(rt.comm(1), 0, exchanged));
  rt.run();
  EXPECT_EQ(exchanged, 2);
}

sim::Task send_big_then_small(Comm& comm, Rank dst) {
  co_await comm.send(dst, Payload::original(comm.rank(), 50000));
  Payload tiny = Payload::of({{7, 1}});
  co_await comm.send(dst, std::move(tiny));
}

sim::Task recv_two_sizes(Comm& comm, Rank src, std::vector<Bytes>& sizes) {
  Message a = co_await comm.recv(src);
  Message b = co_await comm.recv(src);
  sizes.push_back(a.payload.total_bytes());
  sizes.push_back(b.payload.total_bytes());
}

TEST(Runtime, FifoPerSenderReceiverPair) {
  Runtime rt = make_runtime(2);
  std::vector<Bytes> sizes;
  rt.spawn(0, send_big_then_small(rt.comm(0), 1));
  rt.spawn(1, recv_two_sizes(rt.comm(1), 0, sizes));
  rt.run();
  EXPECT_EQ(sizes, (std::vector<Bytes>{50000, 1}));
}

TEST(Runtime, RecvBlockingIsMeasured) {
  Runtime rt = make_runtime(2);
  rt.spawn(0, send_one(rt.comm(0), 1, 10, /*pre_delay=*/100.0, tags::kData));
  rt.spawn(1, recv_discard(rt.comm(1), 0));
  const RunOutcome out = rt.run();
  EXPECT_EQ(out.metrics.max_waits, 1u);
}

sim::Task delayed_recv(Comm& comm, Rank src, double delay) {
  co_await comm.compute(delay);
  (void)co_await comm.recv(src);
}

TEST(Runtime, BufferedRecvDoesNotCountAsWait) {
  Runtime rt = make_runtime(2);
  rt.spawn(0, send_one(rt.comm(0), 1, 10, 0, tags::kData));
  rt.spawn(1, delayed_recv(rt.comm(1), 0, 500.0));
  const RunOutcome out = rt.run();
  EXPECT_EQ(out.metrics.max_waits, 0u);
}

sim::Task recv_two_any(Comm& comm, std::vector<Rank>& order) {
  Message a = co_await comm.recv(kAnySource, tags::kData);
  Message b = co_await comm.recv(kAnySource, tags::kData);
  order.push_back(a.src);
  order.push_back(b.src);
}

TEST(Runtime, AnySourceReceivesInArrivalOrder) {
  Runtime rt = make_runtime(3);
  std::vector<Rank> order;
  rt.spawn(1, send_one(rt.comm(1), 0, 10, /*pre_delay=*/50.0, tags::kData));
  rt.spawn(2, send_one(rt.comm(2), 0, 10, 0, tags::kData));
  rt.spawn(0, recv_two_any(rt.comm(0), order));
  rt.run();
  EXPECT_EQ(order, (std::vector<Rank>{2, 1}));
}

sim::Task send_two_tags(Comm& comm, Rank dst) {
  co_await comm.send(dst, Payload::original(comm.rank(), 10),
                     tags::kExchange);
  co_await comm.send(dst, Payload::original(comm.rank(), 20), tags::kData);
}

sim::Task recv_tagged(Comm& comm, std::vector<int>& tags_seen) {
  // Posted for kData first: must not grab the earlier kExchange message.
  Message d = co_await comm.recv(kAnySource, tags::kData);
  Message e = co_await comm.recv(kAnySource, tags::kExchange);
  tags_seen.push_back(d.tag);
  tags_seen.push_back(e.tag);
}

TEST(Runtime, TagsKeepPhasesApart) {
  Runtime rt = make_runtime(2);
  std::vector<int> tags_seen;
  rt.spawn(0, send_two_tags(rt.comm(0), 1));
  rt.spawn(1, recv_tagged(rt.comm(1), tags_seen));
  rt.run();
  EXPECT_EQ(tags_seen, (std::vector<int>{tags::kData, tags::kExchange}));
}

sim::Task merge_and_check(Comm& comm, Rank src, SimTime& merged_at) {
  Message m = co_await comm.recv(src);
  const SimTime before = comm.now();
  Payload mine = Payload::original(comm.rank(), 500);
  co_await comm.merge(mine, std::move(m.payload));
  // combine_fixed 1.0 + 0.001 * 1000 = 2.0.
  EXPECT_NEAR(comm.now() - before, 2.0, 1e-9);
  EXPECT_EQ(mine.chunk_count(), 2u);
  merged_at = comm.now();
}

TEST(Runtime, MergeChargesCombineCost) {
  Runtime rt = make_runtime(2);
  SimTime merged_at = -1;
  rt.spawn(0, send_one(rt.comm(0), 1, 1000, 0, tags::kData));
  rt.spawn(1, merge_and_check(rt.comm(1), 0, merged_at));
  rt.run();
  EXPECT_GT(merged_at, 0);
}

sim::Task send_sized_program(Comm& comm, Rank dst, Bytes wire) {
  co_await comm.send_sized(dst, Payload{}, wire);
}

sim::Task recv_wire(Comm& comm, Rank src, Bytes& wire) {
  Message m = co_await comm.recv(src);
  wire = m.wire_bytes;
  EXPECT_TRUE(m.payload.empty());
}

TEST(Runtime, SendSizedUsesExplicitWire) {
  Runtime rt = make_runtime(2);
  Bytes wire = 0;
  rt.spawn(0, send_sized_program(rt.comm(0), 1, 4096));
  rt.spawn(1, recv_wire(rt.comm(1), 0, wire));
  rt.run();
  EXPECT_EQ(wire, 4096u);
}

double ping_makespan(double mpi_extra) {
  CommParams c = plain_comm();
  c.mpi_extra_us = mpi_extra;
  Runtime rt(std::make_shared<net::LinearArray>(2), fast_net(), c,
             net::RankMapping::identity(2));
  rt.spawn(0, send_one(rt.comm(0), 1, 100, 0, tags::kData));
  rt.spawn(1, recv_discard(rt.comm(1), 0));
  return rt.run().makespan_us;
}

TEST(Runtime, MpiExtraSlowsEveryMessage) {
  // One send + one recv: 2 * extra more end-to-end.
  EXPECT_NEAR(ping_makespan(10.0) - ping_makespan(0.0), 20.0, 1e-9);
}

TEST(Runtime, DeadlockDetectedWithDiagnostics) {
  Runtime rt = make_runtime(2);
  rt.spawn(0, recv_discard(rt.comm(0), 1));  // never satisfied
  rt.spawn(1, idle_program(rt.comm(1)));
  try {
    rt.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("recv(1)"), std::string::npos) << what;
  }
}

sim::Task throwing_program(Comm& comm) {
  co_await comm.compute(1.0);
  throw std::runtime_error("program bug");
}

TEST(Runtime, ProgramExceptionsSurface) {
  Runtime rt = make_runtime(1);
  rt.spawn(0, throwing_program(rt.comm(0)));
  EXPECT_THROW(rt.run(), std::runtime_error);
}

TEST(Runtime, SpawnValidation) {
  Runtime rt = make_runtime(2);
  rt.spawn(0, idle_program(rt.comm(0)));
  EXPECT_THROW(rt.spawn(0, idle_program(rt.comm(0))), CheckError);
  EXPECT_THROW(rt.spawn(5, idle_program(rt.comm(0))), CheckError);
  EXPECT_THROW(rt.run(), CheckError);  // rank 1 has no program
}

TEST(Runtime, SelfSendRejected) {
  Runtime rt = make_runtime(2);
  EXPECT_THROW(rt.comm(0).send(0, Payload::original(0, 1)), CheckError);
  EXPECT_THROW(static_cast<void>(rt.comm(0).recv(0)), CheckError);
}

sim::Task ring_program(Comm& comm) {
  const Rank me = comm.rank();
  const int p = comm.size();
  Payload mine = Payload::original(me, 256 * static_cast<Bytes>(me + 1));
  co_await comm.send((me + 1) % p, std::move(mine));
  Message m = co_await comm.recv((me + p - 1) % p);
  co_await comm.compute(static_cast<double>(m.wire_bytes) * 0.01);
}

TEST(Runtime, DeterministicAcrossIdenticalRuns) {
  const auto run_once = []() {
    Runtime rt = make_runtime(4);
    for (Rank r = 0; r < 4; ++r) rt.spawn(r, ring_program(rt.comm(r)));
    const RunOutcome out = rt.run();
    return std::pair{out.makespan_us, out.events};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);  // bit-identical, not just close
  EXPECT_EQ(a.second, b.second);
}

sim::Task all_to_all_program(Comm& comm) {
  const Rank me = comm.rank();
  for (Rank peer = 0; peer < comm.size(); ++peer) {
    if (peer == me) continue;
    co_await comm.send(peer, Payload::original(me, 128));
  }
  for (int k = 0; k < comm.size() - 1; ++k)
    (void)co_await comm.recv(kAnySource, tags::kData);
}

TEST(Runtime, SendsEqualReceivesInMetrics) {
  Runtime rt = make_runtime(4);
  for (Rank r = 0; r < 4; ++r) rt.spawn(r, all_to_all_program(rt.comm(r)));
  const RunOutcome out = rt.run();
  EXPECT_EQ(out.metrics.total_sends, 12u);
  EXPECT_EQ(out.metrics.total_recvs, 12u);
  EXPECT_EQ(out.network.transfers, 12u);
}

// --- the message path's allocations --------------------------------------

/// Rank 0: `warm` + `pairs` rounds of two sends and two echo receives,
/// counting the allocations of the last `pairs` rounds.
sim::Task pair_sender(Comm& comm, int warm, int pairs, std::size_t& allocs) {
  std::size_t before = 0;
  for (int i = 0; i < warm + pairs; ++i) {
    if (i == warm) before = test::allocations_here();
    co_await comm.send(1, Payload::original(0, 64));
    co_await comm.send(1, Payload::original(0, 64));
    static_cast<void>(co_await comm.recv(1));
    static_cast<void>(co_await comm.recv(1));
  }
  allocs = test::allocations_here() - before;
}

/// Rank 1: echoes each pair back.  The compute between the two receives
/// lets the second message arrive first, so it parks in the mailbox.
sim::Task pair_echo(Comm& comm, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    static_cast<void>(co_await comm.recv(0));
    co_await comm.compute(0.0);
    static_cast<void>(co_await comm.recv(0));
    co_await comm.send(0, Payload::original(1, 64));
    co_await comm.send(0, Payload::original(1, 64));
  }
}

/// Two ranks on a free machine (no latency, overhead or serialization),
/// so every event lands at t = 0: the event queue's radix buckets, which
/// grow with the clock's bit patterns rather than with messages, stay out
/// of allocation counts.
Runtime free_runtime() {
  net::NetParams free_net;
  free_net.alpha_us = 0;
  free_net.per_hop_us = 0;
  free_net.bytes_per_us = std::numeric_limits<double>::infinity();
  CommParams free_comm = plain_comm();
  free_comm.send_overhead_us = 0;
  free_comm.recv_overhead_us = 0;
  return Runtime(std::make_shared<net::LinearArray>(2), free_net, free_comm,
                 net::RankMapping::identity(2));
}

/// Allocations of `pairs` warm rounds of the pair exchange (after 16
/// warm-up rounds) on free_runtime(), optionally with schedule recording
/// on.
std::size_t warm_exchange_allocs(int pairs, bool record) {
  constexpr int kWarm = 16;
  Runtime rt = free_runtime();
  if (record) rt.enable_schedule_recording();
  std::size_t allocs = 0;
  rt.spawn(0, pair_sender(rt.comm(0), kWarm, pairs, allocs));
  rt.spawn(1, pair_echo(rt.comm(1), kWarm + pairs));
  const RunOutcome out = rt.run();
  EXPECT_EQ(out.makespan_us, 0.0);
  EXPECT_EQ(out.metrics.total_sends,
            static_cast<std::uint64_t>(4 * (kWarm + pairs)));
  if (record) {
    EXPECT_EQ(rt.schedule().size(),
              static_cast<std::size_t>(8 * (kWarm + pairs)));
  }
  return allocs;
}

TEST(Runtime, WarmExchangeAllocatesIndependentlyOfMessageCount) {
  // A send, its delivery, the mailbox and the receive pass a pool slot
  // and typed queue entries around: once the pools are warm, exchanging
  // N or 2N inline-payload messages allocates the same number of times —
  // none.
  const std::size_t n = warm_exchange_allocs(64, false);
  EXPECT_EQ(n, warm_exchange_allocs(128, false));
  EXPECT_EQ(n, 0u);
}

TEST(Runtime, RecordingAWarmExchangeAllocatesOnlyForPoolGrowth) {
  // Recording writes each op into the schedule's op vector and its chunk
  // sources into the one chunk pool (a receive shares its send's range),
  // so the only allocations are those two vectors doubling: at most one
  // more each when the exchange doubles.  (A vector per recorded send
  // and matched receive would add 2 * 4 per round.)
  const std::size_t n = warm_exchange_allocs(64, true);
  const std::size_t twice = warm_exchange_allocs(128, true);
  EXPECT_LE(n, 6u);
  EXPECT_GE(twice, n);
  EXPECT_LE(twice - n, 2u);
}

/// One rank of a two-rank run: `rounds` ping-pongs with the other rank
/// inside an outer phase, each in a nested per-round phase (three deep on
/// even rounds), one metrics iteration per round.  A ping-pong drains the
/// event queue every round, so its entries do not grow with the rounds
/// (a stream of same-time events would keep them).
sim::Task phased_rounds(Comm& comm, int rounds) {
  const Rank peer = 1 - comm.rank();
  comm.begin_phase("outer");
  for (int i = 0; i < rounds; ++i) {
    comm.begin_phase("round");
    if (i % 2 == 0) comm.begin_phase("inner");
    if (comm.rank() == 0) {
      co_await comm.send(peer, Payload::original(comm.rank(), 64));
      static_cast<void>(co_await comm.recv(peer));
    } else {
      static_cast<void>(co_await comm.recv(peer));
      co_await comm.send(peer, Payload::original(comm.rank(), 64));
    }
    if (i % 2 == 0) comm.end_phase();
    comm.end_phase();
    comm.mark_iteration();
  }
  comm.end_phase();
}

/// Allocations of a whole phased run of `rounds` rounds on
/// free_runtime(): set-up, programs, run and outcome.
std::size_t phased_run_allocs(int rounds) {
  const std::size_t before = test::allocations_here();
  {
    Runtime rt = free_runtime();
    rt.spawn(0, phased_rounds(rt.comm(0), rounds));
    rt.spawn(1, phased_rounds(rt.comm(1), rounds));
    const RunOutcome out = rt.run();
    EXPECT_EQ(out.metrics.iterations, static_cast<std::size_t>(rounds));
    EXPECT_EQ(out.metrics.congestion, 2u);
    EXPECT_EQ(out.phases.size(), 3u);
    EXPECT_EQ(out.phases[1].entries, static_cast<std::uint64_t>(2 * rounds));
  }
  return test::allocations_here() - before;
}

TEST(Runtime, RunAllocationsDoNotGrowWithIterationsOrPhases) {
  // Figure-2 metrics keep running totals, not a row per iteration, and
  // phases live in runtime-wide tables, not per-rank vectors: a run that
  // marks twice the iterations and enters twice the phases allocates as
  // often.
  EXPECT_EQ(phased_run_allocs(64), phased_run_allocs(128));
}

TEST(Runtime, MessageFaultPlanNeedsNoQuadraticSequenceTable) {
  // Fault runs number messages per (src, dst) channel.  The counters
  // exist for the channels a sender uses, not as a dense p x p table,
  // which would be 1 GiB of uint32 at 16384 ranks: setting up takes a
  // budget linear in p (about 0.5 KiB per rank today).
  constexpr int kRanks = 16384;
  const auto topo = std::make_shared<net::Mesh2D>(128, 128);
  fault::FaultSpec spec;
  spec.drop_rate = 0.1;
  const auto plan = std::make_shared<const fault::FaultPlan>(
      spec, 42, topo->link_space(), kRanks);
  ASSERT_TRUE(plan->spec().message_faults());
  const std::size_t before = test::bytes_allocated_here();
  Runtime rt(topo, fast_net(), plain_comm(),
             net::RankMapping::identity(kRanks));
  rt.set_fault_plan(plan);
  const std::size_t bytes = test::bytes_allocated_here() - before;
  EXPECT_LT(bytes, std::size_t{kRanks} * 1024) << bytes << " bytes";
}

// --- the fault-run reorder buffer -----------------------------------------

sim::Task numbered_sender(Comm& comm, int count) {
  for (int i = 0; i < count; ++i)
    co_await comm.send(1, Payload::original(0, 8 * static_cast<Bytes>(i + 1)));
}

sim::Task numbered_receiver(Comm& comm, int count, std::vector<Bytes>& got) {
  for (int i = 0; i < count; ++i) {
    const Message m = co_await comm.recv(0);
    got.push_back(m.payload.total_bytes());
  }
}

TEST(Runtime, FaultRunsReleaseInSendOrder) {
  // Rank 0 streams numbered messages to rank 1 under heavy drops and lost
  // acknowledgements.  A dropped message is retransmitted a timeout later,
  // after its successors landed, and a lost acknowledgement sends a
  // duplicate: the reorder buffer holds the early slots, discards the
  // duplicates and releases in send order.
  constexpr int kCount = 40;
  fault::FaultSpec spec;
  spec.drop_rate = 0.3;
  spec.dup_rate = 0.3;
  const auto plan = std::make_shared<const fault::FaultPlan>(
      spec, 5, net::LinearArray(2).link_space(), 2);
  // The plan drops some message's first attempt but not its successor's,
  // so the successor arrives first.
  bool overtaken = false;
  for (std::uint32_t seq = 0; seq + 1 < kCount; ++seq)
    overtaken |= plan->transit_dropped(0, 1, seq, 0) &&
                 !plan->transit_dropped(0, 1, seq + 1, 0);
  ASSERT_TRUE(overtaken);
  std::vector<Bytes> want;
  for (int i = 0; i < kCount; ++i) want.push_back(8 * static_cast<Bytes>(i + 1));

  Runtime rt = make_runtime(2);
  rt.set_fault_plan(plan);
  std::vector<Bytes> got;
  rt.spawn(0, numbered_sender(rt.comm(0), kCount));
  rt.spawn(1, numbered_receiver(rt.comm(1), kCount, got));
  const RunOutcome out = rt.run();
  EXPECT_EQ(got, want);
  EXPECT_GT(out.metrics.retransmits, 0u);
  EXPECT_GT(out.metrics.duplicates, 0u);
  EXPECT_EQ(out.metrics.total_recvs, static_cast<std::uint64_t>(kCount));
}

TEST(Runtime, RunIsOneShot) {
  Runtime rt = make_runtime(1);
  rt.spawn(0, idle_program(rt.comm(0)));
  rt.run();
  EXPECT_THROW(rt.run(), CheckError);
}

}  // namespace
}  // namespace spb::mp
