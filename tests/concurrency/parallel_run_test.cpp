// Byte-identical outcomes of the sharded conservative-window engine across
// worker-thread counts (see sim/sharded.h and mp::Runtime::enable_parallel).
//
// The engine's contract is that `sim_threads` only changes wall-clock
// time, never results: the shard partition, window width and the barrier's
// canonical reserve order are all thread-count independent.  These tests
// fingerprint *everything* a run produces — makespan bits, every aggregate
// metric, fault counters, network totals, per-link busy times, per-shard
// engine statistics and the final payload of every rank — and require the
// fingerprints to match exactly for sim_threads in {1, 2, 8, -1}, on the
// four machine shapes of the acceptance matrix (paragon8x8, t3d512,
// torus4x4x4x4, cluster8x4), with faults off and on.  The runs tell the
// engine the host has four cores, so windows with several busy shards
// engage drain workers even on a one-core host.  Under TSan this suite
// doubles as the data-race check for the engine's worker pool and the
// runtime's per-shard state; ctest's parallel_run_stress repeats the
// fault-run matrix, whose fingerprints caught a worker waking late into
// the next window's claims.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "dist/distribution.h"
#include "fault/fault.h"
#include "machine/config.h"
#include "stop/algorithm.h"
#include "stop/frame.h"
#include "stop/problem.h"
#include "stop/run.h"
#include "stop/verify.h"

namespace spb {
namespace {

// Doubles are rendered as exact bit patterns: "identical" here means
// byte-identical, not approximately equal.
void put(std::ostringstream& os, double v) {
  os << std::bit_cast<std::uint64_t>(v) << ',';
}

std::string fingerprint(const stop::RunResult& r) {
  std::ostringstream os;
  put(os, r.time_us);
  const mp::RunMetrics& m = r.outcome.metrics;
  os << m.total_sends << ',' << m.total_recvs << ',' << m.total_bytes_sent
     << ',' << m.congestion << ',' << m.max_waits << ',' << m.max_send_recv
     << ',' << m.iterations << ',' << m.transit_drops << ','
     << m.retransmits << ',' << m.duplicates << ',';
  put(os, m.av_msg_lgth);
  put(os, m.av_act_proc);
  const net::NetworkStats& n = r.outcome.network;
  os << n.transfers << ',' << n.total_hops << ',' << n.total_bytes << ',';
  put(os, n.total_link_busy_us);
  put(os, n.max_link_busy_us);
  put(os, n.total_stall_us);
  for (const double b : r.outcome.link_busy_us) put(os, b);
  os << '|' << r.outcome.events << ',' << r.outcome.peak_queue_depth << '|';
  const mp::ParallelStats& ps = r.outcome.par;
  os << ps.shards << ',' << ps.windows << ',' << ps.idle_shard_windows
     << ',' << ps.staged_xfers << ',' << ps.held_xfers << ',';
  put(os, ps.window_us);
  put(os, ps.lookahead_min_us);
  put(os, ps.lookahead_max_us);
  for (const mp::ParallelStats::Shard& s : ps.per_shard)
    os << s.events << ':' << s.peak_queue_depth << ':' << s.busy_windows
       << ':' << s.idle_windows << ';';
  os << '|';
  for (const auto& ph : r.outcome.phases) {
    os << ph.name << ',' << ph.sends << ',' << ph.recvs << ',';
    put(os, ph.total_span_us);
    put(os, ph.max_span_us);
  }
  os << '|';
  for (const mp::Payload& p : r.final_payloads) {
    for (const mp::Chunk& c : p.chunks()) os << c.source << ':' << c.bytes << ';';
    os << '/';
  }
  return os.str();
}

/// Core count the runs report to the engine: enough that every window
/// with two or more busy shards engages workers, whatever the host.
constexpr int kCores = 4;

/// stop::run's steps for Br_Lin, with the engine's core count set to
/// kCores (threads 0 = the serial loop).
stop::RunResult run_with_threads(const machine::MachineConfig& machine,
                                 int sources, Bytes bytes, int threads,
                                 const fault::FaultSpec& faults = {}) {
  const stop::Problem pb =
      stop::make_problem(machine, dist::Kind::kRandom, sources, bytes, 11);
  const stop::ProgramFactory factory =
      stop::make_br_lin()->prepare(stop::Frame::whole(pb));
  mp::Runtime rt = pb.machine.make_runtime(false);
  if (faults.any()) {
    rt.set_fault_plan(std::make_shared<const fault::FaultPlan>(
        faults, 7, pb.machine.topology->link_space(), pb.p()));
  }
  if (threads != 0) rt.enable_parallel(threads, kCores);
  stop::RunResult r;
  r.final_payloads.assign(static_cast<std::size_t>(pb.p()), mp::Payload{});
  for (std::size_t i = 0; i < pb.sources.size(); ++i) {
    const Rank s = pb.sources[i];
    r.final_payloads[static_cast<std::size_t>(s)] =
        mp::Payload::original(s, pb.bytes_of_source(i));
  }
  for (Rank rank = 0; rank < pb.p(); ++rank)
    rt.spawn(rank, factory(rt.comm(rank),
                           r.final_payloads[static_cast<std::size_t>(rank)]));
  r.outcome = rt.run();
  r.time_us = r.outcome.makespan_us;
  const stop::VerifyResult v = stop::verify_broadcast(pb, r.final_payloads);
  EXPECT_TRUE(v.ok) << v.error;
  return r;
}

void expect_identical_across_thread_counts(
    const machine::MachineConfig& machine, int sources, Bytes bytes,
    const fault::FaultSpec& faults, int expected_shards) {
  const stop::RunResult one =
      run_with_threads(machine, sources, bytes, 1, faults);
  ASSERT_TRUE(one.outcome.par.parallel());
  EXPECT_EQ(one.outcome.par.shards, expected_shards);
  const std::string fp = fingerprint(one);
  EXPECT_EQ(fp, fingerprint(run_with_threads(machine, sources, bytes, 2,
                                             faults)));
  EXPECT_EQ(fp, fingerprint(run_with_threads(machine, sources, bytes, 8,
                                             faults)));
  // -1 = auto-sized pool (host core count); same contract.
  EXPECT_EQ(fp, fingerprint(run_with_threads(machine, sources, bytes, -1,
                                             faults)));
}

TEST(ParallelRun, Paragon8x8IdenticalAcrossThreadCounts) {
  // 64 nodes -> 2 regions (net::region_count).
  expect_identical_across_thread_counts(machine::paragon(8, 8), 8, 2048, {},
                                        2);
}

TEST(ParallelRun, Paragon8x8IdenticalAcrossThreadCountsWithFaults) {
  fault::FaultSpec faults;
  faults.drop_rate = 0.05;
  faults.stragglers = 3;
  faults.straggle_factor = 2.0;
  expect_identical_across_thread_counts(machine::paragon(8, 8), 8, 2048,
                                        faults, 2);
}

TEST(ParallelRun, T3d512IdenticalAcrossThreadCounts) {
  // 512 nodes -> the 16-region cap.
  expect_identical_across_thread_counts(machine::t3d(512), 8, 1024, {}, 16);
}

TEST(ParallelRun, T3d512IdenticalAcrossThreadCountsWithFaults) {
  fault::FaultSpec faults;
  faults.drop_rate = 0.02;
  expect_identical_across_thread_counts(machine::t3d(512), 8, 1024, faults,
                                        16);
}

TEST(ParallelRun, Torus4x4x4x4IdenticalAcrossThreadCounts) {
  // 256 nodes -> 8 regions; the k-ary n-cube exercises the hop-distance
  // lookahead matrix on a wraparound topology.
  expect_identical_across_thread_counts(machine::torus({4, 4, 4, 4}), 8,
                                        1024, {}, 8);
}

TEST(ParallelRun, Torus4x4x4x4IdenticalAcrossThreadCountsWithFaults) {
  fault::FaultSpec faults;
  faults.drop_rate = 0.03;
  faults.stragglers = 2;
  faults.straggle_factor = 1.5;
  expect_identical_across_thread_counts(machine::torus({4, 4, 4, 4}), 8,
                                        1024, faults, 8);
}

TEST(ParallelRun, Cluster8x4IdenticalAcrossThreadCounts) {
  // 8 nodes x 4 cores = 32 ranks -> the 2-region floor; the two-level
  // machine has strongly asymmetric intra/inter-node latencies.
  expect_identical_across_thread_counts(machine::cluster(8, 4), 6, 2048, {},
                                        2);
}

TEST(ParallelRun, Cluster8x4IdenticalAcrossThreadCountsWithFaults) {
  fault::FaultSpec faults;
  faults.drop_rate = 0.05;
  expect_identical_across_thread_counts(machine::cluster(8, 4), 6, 2048,
                                        faults, 2);
}

TEST(ParallelRun, ParallelMakespanMatchesSerial) {
  // The conservative engine only reorders *concurrent* work; the makespan
  // (and every count) must match the serial loop even when same-window
  // event interleavings differ.  br_lin on a small machine has a single
  // deterministic critical path, so the times agree exactly.
  const machine::MachineConfig machine = machine::paragon(8, 8);
  const stop::RunResult serial = run_with_threads(machine, 4, 4096, 0);
  const stop::RunResult par = run_with_threads(machine, 4, 4096, 2);
  EXPECT_FALSE(serial.outcome.par.parallel());
  ASSERT_TRUE(par.outcome.par.parallel());
  EXPECT_DOUBLE_EQ(serial.time_us, par.time_us);
  EXPECT_EQ(serial.outcome.metrics.total_sends,
            par.outcome.metrics.total_sends);
  EXPECT_EQ(serial.outcome.metrics.total_recvs,
            par.outcome.metrics.total_recvs);
}

TEST(ParallelRun, TracingFallsBackToSerialLoop) {
  // Tracing needs the serial loop's global event order; requesting both
  // must silently take the serial path (par stats empty, trace intact).
  const stop::Problem pb = stop::make_problem(machine::paragon(4, 4),
                                              dist::Kind::kEqual, 4, 512);
  const stop::RunResult r = stop::run(
      *stop::make_br_lin(), pb, stop::RunConfig{}.trace().sim_threads(8));
  EXPECT_FALSE(r.outcome.par.parallel());
  EXPECT_FALSE(r.trace.empty());
}

TEST(ParallelRun, WindowStatisticsAreConsistent) {
  const stop::RunResult r =
      run_with_threads(machine::paragon(8, 8), 8, 2048, 2);
  const mp::ParallelStats& ps = r.outcome.par;
  ASSERT_TRUE(ps.parallel());
  EXPECT_GT(ps.window_us, 0.0);
  EXPECT_GT(ps.windows, 0u);
  ASSERT_EQ(static_cast<int>(ps.per_shard.size()), ps.shards);
  EXPECT_GE(ps.lookahead_min_us, ps.window_us);
  EXPECT_GE(ps.lookahead_max_us, ps.lookahead_min_us);
  std::uint64_t events = 0;
  std::uint64_t busy = 0;
  std::uint64_t idle = 0;
  for (const auto& s : ps.per_shard) {
    events += s.events;
    busy += s.busy_windows;
    idle += s.idle_windows;
    // Per shard, every window was either busy or idle — never both, never
    // neither (the underflow bug this PR fixes reported a *derived* idle
    // count that silently went wrong when the tiling broke).
    EXPECT_EQ(s.busy_windows + s.idle_windows, ps.windows);
  }
  EXPECT_EQ(events, r.outcome.events);
  EXPECT_EQ(idle, ps.idle_shard_windows);
  EXPECT_EQ(busy + idle, ps.windows * static_cast<std::uint64_t>(ps.shards));
  // br_lin on 64 nodes definitely crosses regions.
  EXPECT_GT(ps.staged_xfers, 0u);
}

}  // namespace
}  // namespace spb
