#include "analyze/checks.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analyze/record.h"
#include "common/check.h"
#include "machine/config.h"
#include "mp/mailbox.h"
#include "mp/schedule.h"
#include "schedule_fixtures.h"
#include "stop/algorithm.h"
#include "stop/problem.h"

// Synthetic schedules built op by op exercise each static check in
// isolation; one recorded real run pins the clean path.

namespace spb::analyze {
namespace {

using fixtures::recv_op;
using fixtures::send_op;
using mp::ScheduleOp;

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
  ScheduleOp recv = recv_op(1, 1, 0, 0);
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

TEST(AnalyzeChecks, RankCountMismatchRejected) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      4, {send_op(0, 0, 1, 0, 1020, {0}, 1000), recv_op(1, 1, 0, 0)});
  EXPECT_THROW(analyze_schedule(sched, two_rank_problem()), CheckError);
}

}  // namespace
}  // namespace spb::analyze
