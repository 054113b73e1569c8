#include "analyze/checks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analyze/record.h"
#include "common/check.h"
#include "common/rng.h"
#include "machine/config.h"
#include "mp/mailbox.h"
#include "mp/schedule.h"
#include "net/mapping.h"
#include "net/topology.h"
#include "schedule_fixtures.h"
#include "stop/algorithm.h"
#include "stop/problem.h"

// Synthetic schedules built op by op exercise each static check in
// isolation; one recorded real run pins the clean path.

namespace spb::analyze {
namespace {

using fixtures::recv_op;
using fixtures::send_op;

stop::Problem two_rank_problem(std::vector<Rank> sources = {0, 1}) {
  return stop::make_problem(machine::paragon(1, 2), std::move(sources),
                            1000);
}

bool has_kind(const AnalysisReport& r, Violation::Kind k) {
  for (const Violation& v : r.violations)
    if (v.kind == k) return true;
  return false;
}

const Violation& first_of_kind(const AnalysisReport& r, Violation::Kind k) {
  for (const Violation& v : r.violations)
    if (v.kind == k) return v;
  throw std::runtime_error("kind not present");
}

TEST(AnalyzeChecks, CleanPairwiseExchangeHasNoViolations) {
  // Eager-send-then-receive exchange: the canonical deadlock-free pattern.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000),
          send_op(1, 1, 0, 0, 1020, {1}, 1000), recv_op(2, 0, 1, 0),
          recv_op(3, 1, 0, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.quality.message_rounds, 1);
  EXPECT_EQ(report.quality.total_payload_bytes, 2000u);
  EXPECT_EQ(report.quality.round_lower_bound, 0);  // s == p
}

TEST(AnalyzeChecks, UnmatchedRecvReportsHang) {
  const mp::Schedule sched =
      mp::Schedule::from_ops(2, {recv_op(0, 0, 1, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kUnmatchedRecv));
  const Violation& v =
      first_of_kind(report, Violation::Kind::kUnmatchedRecv);
  EXPECT_EQ(v.rank, 0);
  EXPECT_EQ(v.step, 0);
  EXPECT_NE(v.message.find("hangs"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("rank 0"), std::string::npos) << v.message;
}

TEST(AnalyzeChecks, UnreceivedSendReportsLostTraffic) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kUnreceivedSend));
  const Violation& v =
      first_of_kind(report, Violation::Kind::kUnreceivedSend);
  EXPECT_EQ(v.rank, 0);
  EXPECT_NE(v.message.find("no receive on rank 1"), std::string::npos)
      << v.message;
  // The chunk never propagates, so coverage breaks downstream too.
  EXPECT_TRUE(has_kind(report, Violation::Kind::kCoverage));
}

TEST(AnalyzeChecks, SizeMismatchBetweenMatchedPair) {
  mp::OpDraft recv = recv_op(1, 1, 0, 0);
  recv.completed = true;
  recv.match = 0;
  recv.wire_bytes = 999;  // recorded arrival disagrees with the send
  recv.chunk_sources = {0};
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000), recv});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  EXPECT_TRUE(has_kind(report, Violation::Kind::kSizeMismatch));
}

TEST(AnalyzeChecks, RecvBeforeSendCycleIsReported) {
  // Both ranks receive before sending: a classic deadlock under
  // synchronous matching.  The wait-for graph has a 4-op cycle.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {recv_op(0, 0, 1, 0), recv_op(1, 1, 0, 0),
          send_op(2, 0, 1, 0, 1020, {0}, 1000),
          send_op(3, 1, 0, 0, 1020, {1}, 1000)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kDeadlockCycle));
  const Violation& v =
      first_of_kind(report, Violation::Kind::kDeadlockCycle);
  EXPECT_NE(v.message.find("wait-for cycle of 4 op(s)"), std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("rank 0"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("rank 1"), std::string::npos) << v.message;
}

TEST(AnalyzeChecks, DuplicateChunkInOneMessage) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 2040, {0, 0}, 2000), recv_op(1, 1, 0, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kChunkIntegrity));
  const Violation& v =
      first_of_kind(report, Violation::Kind::kChunkIntegrity);
  EXPECT_NE(v.message.find("source 0"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("more than once"), std::string::npos)
      << v.message;
}

TEST(AnalyzeChecks, ChunkOfNonSourceRankFlagged) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {7}, 1000), recv_op(1, 1, 0, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  EXPECT_TRUE(has_kind(report, Violation::Kind::kUnknownSource));
}

TEST(AnalyzeChecks, SendingAChunkNeverHeldIsProvenanceViolation) {
  // Rank 0 ships source 1's chunk without ever receiving it.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {1}, 1000), recv_op(1, 1, 0, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  ASSERT_TRUE(has_kind(report, Violation::Kind::kProvenance));
  const Violation& v = first_of_kind(report, Violation::Kind::kProvenance);
  EXPECT_NE(v.message.find("neither originated nor received"),
            std::string::npos)
      << v.message;
}

TEST(AnalyzeChecks, RedundantDeliveryIsMetricNotViolation) {
  // Rank 1 echoes source 0's chunk back to rank 0, which already holds
  // it — deliberate redundancy (PersAlltoAll-style), counted not flagged.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000), recv_op(1, 1, 0, 0),
          send_op(2, 1, 0, 0, 2040, {1, 0}, 2000), recv_op(3, 0, 1, 0)});
  const AnalysisReport report = analyze_schedule(sched, two_rank_problem());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.quality.redundant_chunk_deliveries, 1);
  EXPECT_EQ(report.quality.redundant_payload_bytes, 1000u);
}

TEST(AnalyzeChecks, QualityGatesTripOnlyWhenEnabled) {
  // 1-to-2 broadcast done three times over: wasteful but correct.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1020, {0}, 1000), recv_op(1, 1, 0, 0),
          send_op(2, 0, 1, 0, 1020, {0}, 1000), recv_op(3, 1, 0, 0),
          send_op(4, 0, 1, 0, 1020, {0}, 1000), recv_op(5, 1, 0, 0)});
  const stop::Problem pb = two_rank_problem({0});
  EXPECT_TRUE(analyze_schedule(sched, pb).ok());

  AnalysisOptions gates;
  gates.max_step_slack = 1.0;    // 3 steps vs. lower bound 1 round
  gates.max_volume_slack = 2.0;  // 3000B vs. lower bound 500B
  const AnalysisReport gated = analyze_schedule(sched, pb, gates);
  int quality = 0;
  for (const Violation& v : gated.violations)
    if (v.kind == Violation::Kind::kQuality) ++quality;
  EXPECT_EQ(quality, 2) << gated.to_string();
}

TEST(AnalyzeChecks, RecordedTwoStepRunPassesAllChecks) {
  const fixtures::Recorded& rec = fixtures::recorded_two_step();
  const AnalysisReport report = analyze_schedule(rec.schedule, rec.pb);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // p = 16, s = 4: no schedule can finish in fewer than 2 rounds.
  EXPECT_EQ(report.quality.round_lower_bound, 2);
  EXPECT_GE(report.quality.message_rounds,
            report.quality.round_lower_bound);
  EXPECT_GT(report.quality.total_payload_bytes, 0u);
}

/// The link-conflict count as a map of per-level hash maps over fresh
/// routes, every send counted in op-id order: the reference the flat
/// per-level counters must reproduce, worst level included.
/// `levels_at_max` gets the number of levels whose hottest link reaches
/// the maximum (ties when above 1).
LinkConflicts map_based_conflicts(const mp::Schedule& sched,
                                  const std::vector<int>& level,
                                  const net::Topology& topo,
                                  const net::RankMapping& mapping,
                                  int& levels_at_max) {
  LinkConflicts out;
  std::map<int, std::unordered_map<LinkId, int>> per_level;
  std::map<int, int> level_max;
  for (const mp::ScheduleOp& op : sched.ops()) {
    if (!op.is_send()) continue;
    const int l = level[static_cast<std::size_t>(op.id)];
    auto& counts = per_level[l];
    for (const LinkId link :
         topo.route(mapping.node_of(op.rank), mapping.node_of(op.peer))) {
      const int c = ++counts[link];
      level_max[l] = std::max(level_max[l], c);
      if (c > out.max) {
        out.max = c;
        out.level = l;
      }
    }
  }
  levels_at_max = 0;
  for (const auto& [l, m] : level_max)
    if (m == out.max) ++levels_at_max;
  return out;
}

TEST(AnalyzeChecks, FlatLinkConflictsMatchTheMapBasedCount) {
  // Small meshes, few levels and many sends make ties common: several
  // levels reach the same maximum, and only the first op to reach it
  // decides the level.
  Rng rng(2024);
  int tied = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int rows = 1 + static_cast<int>(rng.next_below(4));
    const int cols = 2 + static_cast<int>(rng.next_below(4));
    const int p = rows * cols;
    const net::Mesh2D mesh(rows, cols);
    const net::RankMapping mapping =
        trial % 2 == 0 ? net::RankMapping::identity(p)
                       : net::RankMapping::random(p, p, rng.next_u64());
    const int n = static_cast<int>(rng.next_below(40));
    std::vector<mp::OpDraft> ops;
    for (int id = 0; id < n; ++id) {
      const auto src = static_cast<Rank>(rng.next_below(
          static_cast<std::uint64_t>(p)));
      auto dst = static_cast<Rank>(rng.next_below(
          static_cast<std::uint64_t>(p - 1)));
      if (dst >= src) ++dst;
      ops.push_back(rng.next_below(4) == 0 ? recv_op(id, dst, src, 0)
                                           : send_op(id, src, dst, 0, 8,
                                                     {src}, 4));
    }
    const mp::Schedule sched = mp::Schedule::from_ops(p, std::move(ops));
    std::vector<int> level(sched.size());
    const std::uint64_t levels = 1 + rng.next_below(4);
    for (int& l : level) l = static_cast<int>(rng.next_below(levels));

    int levels_at_max = 0;
    const LinkConflicts want =
        map_based_conflicts(sched, level, mesh, mapping, levels_at_max);
    const LinkConflicts got =
        worst_link_conflicts(sched, level, mesh, mapping);
    ASSERT_EQ(got.max, want.max) << "trial " << trial;
    ASSERT_EQ(got.level, want.level) << "trial " << trial;
    if (levels_at_max > 1) ++tied;
  }
  EXPECT_GT(tied, 20);
}

TEST(AnalyzeChecks, RankCountMismatchRejected) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      4, {send_op(0, 0, 1, 0, 1020, {0}, 1000), recv_op(1, 1, 0, 0)});
  EXPECT_THROW(analyze_schedule(sched, two_rank_problem()), CheckError);
}

}  // namespace
}  // namespace spb::analyze
