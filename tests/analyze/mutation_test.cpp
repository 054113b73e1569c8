#include "analyze/mutate.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analyze/checks.h"
#include "analyze/record.h"
#include "common/check.h"
#include "machine/config.h"
#include "mp/mailbox.h"
#include "schedule_fixtures.h"
#include "stop/algorithm.h"
#include "stop/problem.h"

// Seeded-bug harness: each mutation corrupts a recorded 2-Step schedule
// (fully tag-pinned, so every mutation has eligible ops) and the static
// analyzer must flag it with a report naming the culprit.

namespace spb::analyze {
namespace {

using fixtures::Recorded;
using fixtures::recorded_two_step;
using fixtures::recv_op;
using fixtures::send_op;

bool has_kind(const AnalysisReport& r, Violation::Kind k) {
  for (const Violation& v : r.violations)
    if (v.kind == k) return true;
  return false;
}

TEST(Mutation, DropSendIsFlaggedWithHangAndCoverage) {
  // Several seeds, so some drop the schedule's last op (seeds 2 and 5
  // here): its id then lies past from_ops()'s remap table.
  const Recorded& rec = recorded_two_step();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const MutationResult mut =
        apply_mutation(rec.schedule, Mutation::kDropSend, seed);
    EXPECT_EQ(mut.schedule.size(), rec.schedule.size() - 1);
    const AnalysisReport report = analyze_schedule(mut.schedule, rec.pb);
    EXPECT_FALSE(report.ok());
    // The dropped message's receiver can never be satisfied (pigeonhole
    // on its mailbox), and its chunks never reach the subtree behind it.
    EXPECT_TRUE(has_kind(report, Violation::Kind::kUnmatchedRecv))
        << report.to_string();
    EXPECT_TRUE(has_kind(report, Violation::Kind::kCoverage))
        << report.to_string();
    EXPECT_NE(mut.description.find("rank"), std::string::npos)
        << mut.description;
  }
}

TEST(Mutation, TagMismatchStarvesReceiverAndStrandsSend) {
  const Recorded& rec = recorded_two_step();
  const MutationResult mut =
      apply_mutation(rec.schedule, Mutation::kTagMismatch, /*seed=*/3);
  const AnalysisReport report = analyze_schedule(mut.schedule, rec.pb);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_kind(report, Violation::Kind::kUnmatchedRecv))
      << report.to_string();
  EXPECT_TRUE(has_kind(report, Violation::Kind::kUnreceivedSend))
      << report.to_string();
}

TEST(Mutation, DuplicateChunkTripsIntegrity) {
  const Recorded& rec = recorded_two_step();
  const MutationResult mut =
      apply_mutation(rec.schedule, Mutation::kDuplicateChunk, /*seed=*/3);
  const AnalysisReport report = analyze_schedule(mut.schedule, rec.pb);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_kind(report, Violation::Kind::kChunkIntegrity))
      << report.to_string();
}

TEST(Mutation, CyclicWaitClosesAWaitForCycle) {
  const Recorded& rec = recorded_two_step();
  const MutationResult mut =
      apply_mutation(rec.schedule, Mutation::kCyclicWait, /*seed=*/3);
  // Same ops, reordered: nothing is added or removed, and the recorded
  // matching survives the reorder (from_ops remaps edges by id).
  EXPECT_EQ(mut.schedule.size(), rec.schedule.size());
  const AnalysisReport report = analyze_schedule(mut.schedule, rec.pb);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_kind(report, Violation::Kind::kDeadlockCycle))
      << report.to_string();
  EXPECT_NE(mut.description.find("circular wait"), std::string::npos)
      << mut.description;
}

TEST(Mutation, CyclicWaitNeedsAnExchangePair) {
  // One send, one receive, no reciprocal traffic: nothing to reorder.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1), recv_op(1, 1, 0, 0, 0)});
  EXPECT_THROW(apply_mutation(sched, Mutation::kCyclicWait, 1), CheckError);
}

TEST(Mutation, SameSeedPicksSameTarget) {
  const Recorded& rec = recorded_two_step();
  const MutationResult a =
      apply_mutation(rec.schedule, Mutation::kDropSend, 42);
  const MutationResult b =
      apply_mutation(rec.schedule, Mutation::kDropSend, 42);
  EXPECT_EQ(a.target_op, b.target_op);
  EXPECT_EQ(a.description, b.description);
}

TEST(Mutation, TagMismatchNeedsATagPinnedReceive) {
  // A schedule whose only receive is fully wildcard has no eligible op.
  const mp::Schedule sched = mp::Schedule::from_ops(
      2, {send_op(0, 0, 1, 0, 1),
          recv_op(1, 1, mp::kAnySource, mp::kAnyTag, 0)});
  EXPECT_THROW(apply_mutation(sched, Mutation::kTagMismatch, 1),
               CheckError);
}

TEST(Mutation, NamesRoundTrip) {
  for (const Mutation m : all_mutations())
    EXPECT_EQ(mutation_from_name(mutation_name(m)), m);
  EXPECT_THROW(mutation_from_name("no-such-mutation"), CheckError);
}

}  // namespace
}  // namespace spb::analyze
