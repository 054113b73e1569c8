// Layer 1+2 of the schedule model-checker: the recorded match graph and
// the wait-for graph.
//
// src/analyze re-derives a matching from the (rank, peer, tag) filters and
// never trusts the recorded edges; this layer does the complementary job.
// It treats the recorded match edges as the *claim* ("this is the matching
// the run produced") and proves the claim well-formed:
//
//   match-completeness   every send is consumed by exactly one receive and
//                        every posted receive completed against exactly one
//                        send, with both edges agreeing (bijectivity);
//   tag discipline       every matched pair satisfies the receive's source
//                        and tag filters and agrees on the wire size;
//   FIFO safety          within one (src, dst, tag) channel, messages are
//                        consumed in the order they were sent — the runtime
//                        promise mp/mailbox.h documents, re-proved per
//                        schedule instead of assumed.
//
// check_deadlock_free() then proves the wait-for graph of the recorded
// matching (analyze/graph.h: program-order edges within a rank, match
// edges from each receive to the send it consumed) acyclic; a cycle is
// returned as the full op chain so the report names every rank that
// hangs.
//
// Both checks read analyze::ScheduleGraph::recorded(schedule).
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "mp/schedule.h"

namespace spb::verify {

struct MatchIssue {
  enum class Kind {
    kUnconsumedSend,   // send with no receive edge
    kUnmatchedRecv,    // posted receive that never completed
    kDanglingEdge,     // edge points at a missing / wrong-kind op
    kBrokenBijection,  // send->recv and recv->send edges disagree
    kFilterViolation,  // matched pair violates the receive's src/tag filter
    kSizeDisagreement, // matched pair disagrees on the wire size
    kFifoViolation,    // (src, dst, tag) channel consumed out of order
  };

  Kind kind;
  /// Full description naming rank / step / peer / tag.
  std::string message;
  /// Primary op id this issue anchors to.
  int op = -1;
};

std::string match_issue_kind_name(MatchIssue::Kind kind);

struct MatchCheck {
  std::vector<MatchIssue> issues;
  int sends = 0;
  int recvs = 0;
  int matched_pairs = 0;
  /// Receives with a wildcard source or tag filter — the only ops whose
  /// match is chosen by delivery order (see explore.h).
  int wildcard_recvs = 0;

  bool ok() const { return issues.empty(); }
  std::string to_string(int max_report = 16) const;
};

/// Proves the recorded matching complete, filter-respecting and FIFO-safe.
MatchCheck check_match_graph(const mp::Schedule& schedule);

struct DeadlockCheck {
  /// Empty = acyclic.  Otherwise one wait-for cycle as op ids, in order.
  std::vector<int> cycle;
  /// Human-readable chain for the cycle (empty when acyclic).
  std::string message;
  /// Op chain (ScheduleGraph::op_chain_depth): the longest wait-for chain
  /// counted in ops, 0 when cyclic — the certificate's "depth".  Not the
  /// message rounds analyze::QualityMetrics counts.
  int op_chain_depth = 0;

  bool ok() const { return cycle.empty(); }
};

/// Proves the wait-for graph of the recorded matching acyclic.
DeadlockCheck check_deadlock_free(const mp::Schedule& schedule);

}  // namespace spb::verify
