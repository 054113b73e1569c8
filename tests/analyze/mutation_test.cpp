#include "analyze/mutate.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analyze/checks.h"
#include "analyze/record.h"
#include "common/check.h"
#include "common/rng.h"
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

/// One cyclic-wait candidate: send s1 (A -> B), the later receive r1 on A
/// whose matched send s2 comes from B, and s1's matched receive r2.
struct CyclicQuad {
  int s1, r1, s2, r2;
};

/// The cyclic-wait candidate search as a scan of the whole op list for
/// every matched send — quadratic in the ops, kept as the reference the
/// mutation's per-rank search must agree with.
std::vector<CyclicQuad> full_scan_candidates(const mp::Schedule& schedule) {
  const auto& ops = schedule.ops();
  std::vector<CyclicQuad> out;
  for (const mp::ScheduleOp& s1 : ops) {
    if (!s1.is_send() || s1.match < 0) continue;
    const mp::ScheduleOp& r2 = schedule.op(s1.match);
    if (r2.rank == s1.rank) continue;
    for (const mp::ScheduleOp& r1 : ops) {
      if (!r1.is_recv() || r1.rank != s1.rank || r1.id <= s1.id ||
          r1.match < 0)
        continue;
      if (schedule.op(r1.match).rank != r2.rank) continue;
      out.push_back({s1.id, r1.id, r1.match, r2.id});
      break;
    }
  }
  return out;
}

TEST(Mutation, CyclicWaitPicksWhatTheFullScanPicks) {
  int compared = 0;
  for (const stop::Problem& pb :
       {stop::make_problem(machine::paragon(4, 4), dist::Kind::kRow, 4, 2048),
        stop::make_problem(machine::paragon(8, 8), dist::Kind::kEqual, 10,
                           1024),
        stop::make_problem(machine::t3d(64), dist::Kind::kEqual, 16, 1024)}) {
    for (const stop::AlgorithmPtr& alg : stop::all_algorithms()) {
      const RecordedRun run = record_run(*alg, pb);
      ASSERT_TRUE(run.completed) << alg->name() << ": " << run.failure;
      const mp::Schedule& sched = run.schedule;
      const std::vector<CyclicQuad> cands = full_scan_candidates(sched);
      for (const std::uint64_t seed : {1u, 2u, 7u}) {
        SCOPED_TRACE(alg->name() + " on " + pb.machine.name + ", seed " +
                     std::to_string(seed));
        if (cands.empty()) {
          EXPECT_THROW(apply_mutation(sched, Mutation::kCyclicWait, seed),
                       CheckError);
          continue;
        }
        // The mutation draws one candidate with a generator seeded `seed`.
        Rng rng(seed);
        const CyclicQuad& q = cands[rng.next_below(cands.size())];
        const MutationResult mut =
            apply_mutation(sched, Mutation::kCyclicWait, seed);
        EXPECT_EQ(mut.target_op, q.s1);
        // The description names r1 and s1 by rank and step, and says
        // whether r2 moved too (s2 before r2), so it pins all four ops.
        EXPECT_EQ(mut.description,
                  "reordered " + sched.describe(sched.op(q.r1)) +
                      " ahead of " + sched.describe(sched.op(q.s1)) +
                      (q.s2 < q.r2 ? " (both exchange sides)" : "") +
                      " to close a circular wait");
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
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
