// Per-rank and per-run counters matching the parameters of the paper's
// Figure 2:
//
//   congestion   max sends+receives handled by one processor in a single
//                iteration,
//   wait         number of times a processor blocked for data,
//   #send/rec    total send and receive operations per processor,
//   av_msg_lgth  average length of the messages a processor sends/receives,
//   av_act_proc  average number of active processors per iteration.
//
// Iterations are marked explicitly by the algorithms through
// Comm::mark_iteration(); a rank is "active" in an iteration if it sent or
// received at least one message during it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace spb::mp {

/// Counters for one iteration of one rank.
struct IterationCounters {
  std::uint32_t sends = 0;
  std::uint32_t recvs = 0;
  Bytes bytes = 0;  // sum of message sizes sent + received

  bool active() const { return sends + recvs > 0; }
};

/// Counters for one annotated algorithm phase of one rank (see
/// Comm::begin_phase).  Operations are attributed to the innermost open
/// phase only, so per-phase numbers sum to the rank totals plus whatever
/// happened outside any phase.
struct PhaseCounters {
  std::uint64_t entries = 0;  // begin_phase() calls for this phase name
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t waits = 0;
  Bytes bytes_sent = 0;
  Bytes bytes_received = 0;
  SimTime wait_us = 0;
  SimTime compute_us = 0;
  SimTime span_us = 0;  // wall-clock begin..end, summed over entries
};

/// Counters for one rank over a whole run.
class RankMetrics {
 public:
  void on_send(Bytes message_bytes, int phase = -1);
  void on_recv(Bytes message_bytes, bool blocked, SimTime wait_us,
               int phase = -1);
  void on_compute(SimTime us, int phase = -1);
  void mark_iteration();

  // Phase bookkeeping (driven by Comm::begin_phase/end_phase; phase ids are
  // interned runtime-wide, see Runtime::phase_id).
  void phase_begin(int phase);
  void phase_span(int phase, SimTime span_us);

  // Fault-injection bookkeeping (sender side for drops/retransmits,
  // receiver side for suppressed duplicates); all stay zero without faults.
  void on_transit_drop() { ++transit_drops_; }
  void on_retransmit() { ++retransmits_; }
  void on_duplicate() { ++duplicates_; }

  std::uint64_t sends() const { return sends_; }
  std::uint64_t recvs() const { return recvs_; }
  std::uint64_t send_recv_total() const { return sends_ + recvs_; }
  Bytes bytes_sent() const { return bytes_sent_; }
  Bytes bytes_received() const { return bytes_received_; }
  /// Times a recv had to block because the message had not arrived yet.
  std::uint64_t waits() const { return waits_; }
  /// Transmission attempts this rank lost in transit (fault runs only).
  std::uint64_t transit_drops() const { return transit_drops_; }
  /// Retransmissions this rank issued (fault runs only).
  std::uint64_t retransmits() const { return retransmits_; }
  /// Duplicate deliveries this rank suppressed (fault runs only).
  std::uint64_t duplicates() const { return duplicates_; }
  /// Total time spent blocked in recv.
  SimTime wait_us() const { return wait_us_; }
  SimTime compute_us() const { return compute_us_; }

  /// Max sends+recvs within one iteration (the paper's "congestion").
  std::uint32_t congestion() const;
  /// Mean message length over all messages this rank touched (bytes).
  double avg_message_bytes() const;

  /// Completed iterations, plus the trailing partial one if non-empty.
  const std::vector<IterationCounters>& iterations() const { return iters_; }

  /// Per-phase counters, indexed by interned phase id (may be shorter than
  /// the runtime's phase table if this rank never entered later phases).
  const std::vector<PhaseCounters>& phases() const { return phases_; }

  /// Closes the trailing iteration; called by the runtime at the end.
  void finalize();

 private:
  IterationCounters& current();
  PhaseCounters& phase_at(int phase);

  std::uint64_t sends_ = 0;
  std::uint64_t recvs_ = 0;
  Bytes bytes_sent_ = 0;
  Bytes bytes_received_ = 0;
  std::uint64_t waits_ = 0;
  std::uint64_t transit_drops_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t duplicates_ = 0;
  SimTime wait_us_ = 0;
  SimTime compute_us_ = 0;
  std::vector<IterationCounters> iters_;
  std::vector<PhaseCounters> phases_;
  bool finalized_ = false;
};

/// One row of the per-run phase table: PhaseCounters aggregated over all
/// ranks, carrying the interned phase name so consumers (spb_report, the
/// obs exporters) need no access to the runtime.
struct PhaseTotals {
  std::string name;
  std::uint64_t entries = 0;
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t waits = 0;
  Bytes bytes_sent = 0;
  Bytes bytes_received = 0;
  SimTime wait_us = 0;
  SimTime compute_us = 0;
  /// Sum over ranks of per-rank phase spans (busy-time view).
  SimTime total_span_us = 0;
  /// Max over ranks of per-rank phase span (critical-path view).
  SimTime max_span_us = 0;

  /// Sums the ranks' phase tables in place (no RankMetrics copies).
  static std::vector<PhaseTotals> aggregate(
      std::span<const RankMetrics* const> ranks,
      const std::vector<std::string>& names);
};

/// Whole-run aggregation over all ranks.
struct RunMetrics {
  std::uint64_t total_sends = 0;
  std::uint64_t total_recvs = 0;
  Bytes total_bytes_sent = 0;
  /// Max over ranks of per-iteration sends+recvs (Figure 2 "congestion").
  std::uint32_t congestion = 0;
  /// Max over ranks of blocking-recv count (Figure 2 "wait").
  std::uint64_t max_waits = 0;
  /// Max over ranks of total send+recv operations (Figure 2 "#send/rec").
  std::uint64_t max_send_recv = 0;
  /// Max over ranks of the mean message length (Figure 2 "av_msg_lgth").
  double av_msg_lgth = 0;
  /// Average number of active ranks per iteration ("av_act_proc"), using
  /// the longest rank-local iteration sequence as the global axis.
  double av_act_proc = 0;
  /// Number of iterations of the longest rank.
  std::size_t iterations = 0;
  /// Fault-injection totals over all ranks (zero without faults).
  std::uint64_t transit_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;

  /// Aggregates the ranks in place (no RankMetrics copies).
  static RunMetrics aggregate(std::span<const RankMetrics* const> ranks);
};

}  // namespace spb::mp
