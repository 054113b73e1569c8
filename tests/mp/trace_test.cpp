#include "mp/trace.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "mp/runtime.h"
#include "net/topology.h"

namespace spb::mp {
namespace {

/// Built in place and returned as a prvalue: a Runtime never moves.
Runtime line_runtime(int p) {
  net::NetParams np;
  np.alpha_us = 1.0;
  np.per_hop_us = 0.1;
  np.bytes_per_us = 100.0;
  CommParams cp;
  cp.send_overhead_us = 2.0;
  cp.recv_overhead_us = 3.0;
  return Runtime(std::make_shared<net::LinearArray>(p), np, cp,
                 net::RankMapping::identity(p));
}

sim::Task sender(Comm& comm, Rank dst) {
  co_await comm.compute(10.0);
  co_await comm.send(dst, Payload::original(comm.rank(), 500));
}

sim::Task receiver(Comm& comm, Rank src) {
  (void)co_await comm.recv(src);
}

TEST(Trace, RecordsSendRecvCompute) {
  Runtime rt = line_runtime(2);
  rt.enable_trace();
  rt.spawn(0, sender(rt.comm(0), 1));
  rt.spawn(1, receiver(rt.comm(1), 0));
  rt.run();

  const Trace& trace = rt.trace();
  ASSERT_EQ(trace.size(), 3u);

  const auto r0 = trace.for_rank(0);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0].kind, TraceEvent::Kind::kCompute);
  EXPECT_DOUBLE_EQ(r0[0].begin_us, 0.0);
  EXPECT_DOUBLE_EQ(r0[0].end_us, 10.0);
  EXPECT_EQ(r0[1].kind, TraceEvent::Kind::kSend);
  EXPECT_EQ(r0[1].peer, 1);
  EXPECT_EQ(r0[1].wire_bytes, 500u + 32u + 8u);
  // Issue at t=10; injection window = overhead 2 + serialize 5.4.
  EXPECT_DOUBLE_EQ(r0[1].begin_us, 10.0);
  EXPECT_DOUBLE_EQ(r0[1].end_us, 10.0 + 2.0 + 5.4);
  EXPECT_GT(r0[1].arrive_us, r0[1].end_us);

  const auto r1 = trace.for_rank(1);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].kind, TraceEvent::Kind::kRecv);
  EXPECT_EQ(r1[0].peer, 0);
  EXPECT_TRUE(r1[0].blocked);
  EXPECT_DOUBLE_EQ(r1[0].begin_us, 0.0);
  // Handed over recv_overhead after the arrival.
  EXPECT_DOUBLE_EQ(r1[0].end_us, r0[1].arrive_us + 3.0);
  EXPECT_DOUBLE_EQ(trace.horizon_us(), r1[0].end_us);
}

TEST(Trace, DisabledByDefault) {
  net::NetParams np;
  CommParams cp;
  Runtime rt(std::make_shared<net::LinearArray>(2), np, cp,
             net::RankMapping::identity(2));
  rt.spawn(0, sender(rt.comm(0), 1));
  rt.spawn(1, receiver(rt.comm(1), 0));
  rt.run();
  EXPECT_TRUE(rt.trace().empty());
}

TEST(Trace, TimelineMarksPhases) {
  Runtime rt = line_runtime(2);
  rt.enable_trace();
  rt.spawn(0, sender(rt.comm(0), 1));
  rt.spawn(1, receiver(rt.comm(1), 0));
  rt.run();
  const std::string chart = rt.trace().render_timeline(2, 40);
  // Two rows, each framed by pipes.
  EXPECT_NE(chart.find("rank   0 |"), std::string::npos) << chart;
  EXPECT_NE(chart.find("rank   1 |"), std::string::npos) << chart;
  EXPECT_NE(chart.find('c'), std::string::npos) << chart;
  EXPECT_NE(chart.find('S'), std::string::npos) << chart;
  EXPECT_NE(chart.find('w'), std::string::npos) << chart;
  EXPECT_NE(chart.find('r'), std::string::npos) << chart;
}

TEST(Trace, TimelineFaultMarksWinTheirBucket) {
  // A drop ('x') or retransmit ('R') spans far less time than the send
  // around it; at coarse columns both land in a send's bucket and must
  // survive regardless of recording order.
  Trace t;
  TraceEvent drop;
  drop.kind = TraceEvent::Kind::kDrop;
  drop.rank = 0;
  drop.begin_us = 40.0;
  drop.end_us = 42.0;
  t.record(drop);
  TraceEvent send;
  send.kind = TraceEvent::Kind::kSend;
  send.rank = 0;
  send.begin_us = 0.0;
  send.end_us = 100.0;
  t.record(send);  // recorded after the drop — used to repaint its bucket
  TraceEvent re;
  re.kind = TraceEvent::Kind::kRetransmit;
  re.rank = 0;
  re.begin_us = 80.0;
  re.end_us = 81.0;
  t.record(re);

  const std::string chart = t.render_timeline(1, 10);
  EXPECT_NE(chart.find('x'), std::string::npos) << chart;
  EXPECT_NE(chart.find('R'), std::string::npos) << chart;
  EXPECT_NE(chart.find('S'), std::string::npos) << chart;
  // When both fault marks share one bucket the rarer drop wins: with a
  // single column the whole run collapses into one cell and 'x' outranks
  // 'R' whichever lands first.
  Trace t2;
  t2.record(re);
  t2.record(drop);
  const std::string chart2 = t2.render_timeline(1, 1);
  EXPECT_NE(chart2.find('x'), std::string::npos) << chart2;
}

TEST(Trace, RenderRejectsBadGrid) {
  Trace t;
  EXPECT_THROW(t.render_timeline(0, 10), CheckError);
  EXPECT_THROW(t.render_timeline(2, 0), CheckError);
}

}  // namespace
}  // namespace spb::mp
