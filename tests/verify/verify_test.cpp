#include "verify/certificate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/mutate.h"
#include "analyze/record.h"
#include "common/check.h"
#include "machine/config.h"
#include "mp/mailbox.h"
#include "mp/schedule.h"
#include "schedule_fixtures.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "verify/explore.h"
#include "verify/match.h"
#include "verify/structure.h"

// Unit tests for the schedule model-checker: each layer against both a
// real recorded schedule (2-Step on paragon4x4) and hand-built schedules
// that violate exactly one obligation.

namespace spb::verify {
namespace {

using fixtures::Recorded;
using fixtures::recorded_two_step;
using fixtures::recv_op;
using fixtures::send_op;

bool has_match_issue(const MatchCheck& c, MatchIssue::Kind k) {
  return std::any_of(c.issues.begin(), c.issues.end(),
                     [k](const MatchIssue& i) { return i.kind == k; });
}

bool has_structure_issue(const Structure& s, StructureIssue::Kind k) {
  return std::any_of(s.issues.begin(), s.issues.end(),
                     [k](const StructureIssue& i) { return i.kind == k; });
}

// --- layer 1+2: match graph and wait-for graph -------------------------

TEST(MatchGraph, CleanRecordingIsCompleteAndFifoSafe) {
  const MatchCheck c = check_match_graph(recorded_two_step().schedule);
  EXPECT_TRUE(c.ok()) << c.to_string();
  EXPECT_GT(c.sends, 0);
  EXPECT_EQ(c.sends, c.recvs);
  EXPECT_EQ(c.matched_pairs, c.sends);
}

TEST(MatchGraph, DroppedSendLeavesAnUnmatchedRecv) {
  const Recorded& rec = recorded_two_step();
  const analyze::MutationResult mut =
      analyze::apply_mutation(rec.schedule, analyze::Mutation::kDropSend, 3);
  const MatchCheck c = check_match_graph(mut.schedule);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_match_issue(c, MatchIssue::Kind::kUnmatchedRecv))
      << c.to_string();
}

TEST(MatchGraph, TagSwapBreaksTheFilter) {
  const Recorded& rec = recorded_two_step();
  const analyze::MutationResult mut = analyze::apply_mutation(
      rec.schedule, analyze::Mutation::kTagMismatch, 3);
  const MatchCheck c = check_match_graph(mut.schedule);
  EXPECT_FALSE(c.ok());
  // The retagged send no longer satisfies its receiver's pinned filter.
  EXPECT_TRUE(has_match_issue(c, MatchIssue::Kind::kFilterViolation))
      << c.to_string();
}

TEST(MatchGraph, CrossedChannelConsumptionIsAFifoViolation) {
  // Two messages on the (0 -> 1, tag 0) channel, recorded as consumed in
  // the opposite order from their sends — the mailbox cannot do that.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, /*match=*/3), send_op(1, 0, 1, 0, /*match=*/2),
          recv_op(2, 1, 0, 0, /*match=*/1), recv_op(3, 1, 0, 0, /*match=*/0)});
  const MatchCheck c = check_match_graph(sched);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_match_issue(c, MatchIssue::Kind::kFifoViolation))
      << c.to_string();
}

TEST(MatchGraph, PinnedFilterMismatchIsAFilterViolation) {
  // Receive pinned to source 2 but recorded as consuming rank 0's send.
  const mp::Schedule sched = mp::Schedule::from_ops(
      3, {send_op(0, 0, 1, 0, /*match=*/1), recv_op(1, 1, 2, 0, /*match=*/0)});
  const MatchCheck c = check_match_graph(sched);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(has_match_issue(c, MatchIssue::Kind::kFilterViolation))
      << c.to_string();
}

TEST(MatchGraph, UnconsumedSendAndUnmatchedRecvAreBothFlagged) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, /*match=*/-1),
          recv_op(1, 1, 0, 1, /*match=*/-1)});
  const MatchCheck c = check_match_graph(sched);
  EXPECT_TRUE(has_match_issue(c, MatchIssue::Kind::kUnconsumedSend));
  EXPECT_TRUE(has_match_issue(c, MatchIssue::Kind::kUnmatchedRecv));
}

TEST(WaitForGraph, CleanRecordingIsAcyclicWithPositiveDepth) {
  const DeadlockCheck d = check_deadlock_free(recorded_two_step().schedule);
  EXPECT_TRUE(d.ok()) << d.message;
  EXPECT_GT(d.op_chain_depth, 0);
}

TEST(WaitForGraph, CyclicWaitMutantYieldsACycle) {
  const Recorded& rec = recorded_two_step();
  const analyze::MutationResult mut = analyze::apply_mutation(
      rec.schedule, analyze::Mutation::kCyclicWait, 3);
  const DeadlockCheck d = check_deadlock_free(mut.schedule);
  EXPECT_FALSE(d.ok());
  EXPECT_GE(d.cycle.size(), 4u) << d.message;  // r1 -> s2 -> r2 -> s1
  EXPECT_FALSE(d.message.empty());
}

// --- layer 3: pool/segment structure -----------------------------------

TEST(Structure, CleanRecordingSatisfiesConfluence) {
  const Recorded& rec = recorded_two_step();
  const Structure s = extract_structure(rec.schedule, rec.pb.sources);
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_FALSE(s.pools.empty());
  EXPECT_EQ(s.programs.size(), static_cast<size_t>(rec.pb.machine.p));
}

TEST(Structure, WildcardRecvWithoutMatchIsUnbound) {
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, /*match=*/-1),
          recv_op(1, 1, mp::kAnySource, 0, /*match=*/-1)});
  const std::vector<Rank> sources = {0};
  const Structure s = extract_structure(sched, sources);
  EXPECT_TRUE(has_structure_issue(s, StructureIssue::Kind::kUnboundSegment))
      << s.to_string();
}

TEST(Structure, TwoSegmentsOnOneClassCollide) {
  // Both wildcard segments consume (src 0, tag 0): delivery order no
  // longer determines which segment runs on which message.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, /*match=*/2), send_op(1, 0, 1, 0, /*match=*/3),
          recv_op(2, 1, mp::kAnySource, 0, /*match=*/0),
          recv_op(3, 1, mp::kAnySource, 0, /*match=*/1)});
  const std::vector<Rank> sources = {0};
  const Structure s = extract_structure(sched, sources);
  EXPECT_TRUE(has_structure_issue(s, StructureIssue::Kind::kClassCollision))
      << s.to_string();
}

TEST(Structure, ForeignCompatibleSendAfterThePoolIsAStealHazard) {
  // Rank 1 drains two wildcard deliveries, then a pinned receive takes a
  // third message that the pool's filter also admits — the runtime could
  // have delivered it into the pool instead.
  const mp::Schedule sched = mp::Schedule::from_ops(
      4, {send_op(0, 0, 1, 0, /*match=*/3), send_op(1, 2, 1, 0, /*match=*/4),
          send_op(2, 3, 1, 0, /*match=*/5),
          recv_op(3, 1, mp::kAnySource, 0, /*match=*/0),
          recv_op(4, 1, mp::kAnySource, 0, /*match=*/1),
          recv_op(5, 1, 3, 0, /*match=*/2)});
  const std::vector<Rank> sources = {0, 2, 3};
  const Structure s = extract_structure(sched, sources);
  EXPECT_TRUE(has_structure_issue(s, StructureIssue::Kind::kStealHazard))
      << s.to_string();
}

// --- layer 4: exploration ----------------------------------------------

TEST(Explore, CleanRecordingIsExhaustiveAndDeterministic) {
  const Recorded& rec = recorded_two_step();
  const Structure s = extract_structure(rec.schedule, rec.pb.sources);
  ASSERT_TRUE(s.ok());
  const ExploreResult e = explore(rec.schedule, s);
  EXPECT_TRUE(e.exhaustive) << e.note;
  EXPECT_TRUE(e.deterministic) << e.note;
  EXPECT_FALSE(e.deadlock_found) << e.deadlock_witness;
  EXPECT_GE(e.terminals, 1);
  EXPECT_GE(e.states, 1u);
}

TEST(Explore, StateBudgetExhaustionIsReportedNotCertified) {
  const Recorded& rec = recorded_two_step();
  const Structure s = extract_structure(rec.schedule, rec.pb.sources);
  ASSERT_TRUE(s.ok());
  ExploreOptions opt;
  opt.max_states = 1;
  const ExploreResult e = explore(rec.schedule, s, opt);
  EXPECT_FALSE(e.exhaustive);
  EXPECT_FALSE(e.deterministic);
}

// --- layer 5: the certificate ------------------------------------------

TEST(Certificate, CleanTwoStepIsCertified) {
  const Recorded& rec = recorded_two_step();
  const stop::AlgorithmPtr alg = stop::find_algorithm("2-Step");
  const Certificate cert = certify(*alg, rec.pb);
  EXPECT_TRUE(cert.certified) << cert.to_string();
  EXPECT_TRUE(cert.reasons.empty());
  EXPECT_EQ(cert.algorithm, "2-Step");
  EXPECT_EQ(cert.ranks, 16);
  EXPECT_EQ(cert.verdict(), "certified");
}

TEST(Certificate, EveryRequiredMutationIsRejected) {
  const Recorded& rec = recorded_two_step();
  for (const analyze::Mutation m :
       {analyze::Mutation::kDropSend, analyze::Mutation::kTagMismatch,
        analyze::Mutation::kCyclicWait}) {
    const analyze::MutationResult mut =
        analyze::apply_mutation(rec.schedule, m, /*seed=*/3);
    const Certificate cert =
        certify_schedule(mut.schedule, rec.pb.sources);
    EXPECT_FALSE(cert.certified) << analyze::mutation_name(m);
    EXPECT_FALSE(cert.reasons.empty()) << analyze::mutation_name(m);
    EXPECT_EQ(cert.verdict(), "rejected");
  }
}

TEST(Certificate, JsonCarriesVerdictAndEveryLayer) {
  const Recorded& rec = recorded_two_step();
  const stop::AlgorithmPtr alg = stop::find_algorithm("2-Step");
  const Certificate cert = certify(*alg, rec.pb);
  std::ostringstream os;
  write_certificate_json(os, cert);
  const std::string json = os.str();
  for (const char* key :
       {"\"algorithm\"", "\"certified\"", "\"match\"", "\"wait_for\"",
        "\"structure\"", "\"exploration\"", "\"reasons\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Certificate, ToStringNamesTheVerdict) {
  const Recorded& rec = recorded_two_step();
  const stop::AlgorithmPtr alg = stop::find_algorithm("2-Step");
  const Certificate cert = certify(*alg, rec.pb);
  EXPECT_NE(cert.to_string().find("certified"), std::string::npos)
      << cert.to_string();
}

}  // namespace
}  // namespace spb::verify
