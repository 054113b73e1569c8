#include "mp/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace spb::mp {

void RankMetrics::on_send(Bytes message_bytes, PhaseCounters* phase) {
  SPB_CHECK(!finalized_);
  ++sends_;
  bytes_sent_ += message_bytes;
  ++open_ops_;
  if (phase != nullptr) {
    ++phase->sends;
    phase->bytes_sent += message_bytes;
  }
}

void RankMetrics::on_recv(Bytes message_bytes, bool blocked, SimTime wait_us,
                          PhaseCounters* phase) {
  SPB_CHECK(!finalized_);
  ++recvs_;
  bytes_received_ += message_bytes;
  if (blocked) {
    ++waits_;
    wait_us_ += wait_us;
  }
  ++open_ops_;
  if (phase != nullptr) {
    ++phase->recvs;
    phase->bytes_received += message_bytes;
    if (blocked) {
      ++phase->waits;
      phase->wait_us += wait_us;
    }
  }
}

void RankMetrics::on_compute(SimTime us, PhaseCounters* phase) {
  compute_us_ += us;
  if (phase != nullptr) phase->compute_us += us;
}

void RankMetrics::mark_iteration() {
  SPB_CHECK(!finalized_);
  ++closed_iters_;
  if (open_ops_ > 0) ++active_closed_iters_;
  max_closed_ops_ = std::max(max_closed_ops_, open_ops_);
  open_ops_ = 0;
}

std::uint32_t RankMetrics::congestion() const {
  return std::max(max_closed_ops_, open_ops_);
}

std::uint64_t RankMetrics::iteration_count() const {
  return closed_iters_ + (open_ops_ > 0 ? 1 : 0);
}

std::uint64_t RankMetrics::active_iterations() const {
  return active_closed_iters_ + (open_ops_ > 0 ? 1 : 0);
}

double RankMetrics::avg_message_bytes() const {
  const std::uint64_t n = sends_ + recvs_;
  if (n == 0) return 0;
  return static_cast<double>(bytes_sent_ + bytes_received_) /
         static_cast<double>(n);
}

std::vector<PhaseTotals> PhaseTotals::aggregate(
    std::span<const PhaseCounters> cells, std::size_t ranks,
    const std::vector<std::string>& names) {
  SPB_CHECK(cells.size() == names.size() * ranks);
  std::vector<PhaseTotals> out(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    PhaseTotals& t = out[i];
    t.name = names[i];
    // Rank order, so the floating-point sums do not depend on the layout.
    for (const PhaseCounters& c : cells.subspan(i * ranks, ranks)) {
      t.entries += c.entries;
      t.sends += c.sends;
      t.recvs += c.recvs;
      t.waits += c.waits;
      t.bytes_sent += c.bytes_sent;
      t.bytes_received += c.bytes_received;
      t.wait_us += c.wait_us;
      t.compute_us += c.compute_us;
      t.total_span_us += c.span_us;
      t.max_span_us = std::max(t.max_span_us, c.span_us);
    }
  }
  return out;
}

RunMetrics RunMetrics::aggregate(std::span<const RankMetrics* const> ranks) {
  RunMetrics m;
  std::uint64_t max_iters = 0;
  std::uint64_t active_sum = 0;
  for (const RankMetrics* r : ranks) {
    m.total_sends += r->sends();
    m.total_recvs += r->recvs();
    m.total_bytes_sent += r->bytes_sent();
    m.congestion = std::max(m.congestion, r->congestion());
    m.max_waits = std::max(m.max_waits, r->waits());
    m.max_send_recv = std::max(m.max_send_recv, r->send_recv_total());
    m.av_msg_lgth = std::max(m.av_msg_lgth, r->avg_message_bytes());
    m.transit_drops += r->transit_drops();
    m.retransmits += r->retransmits();
    m.duplicates += r->duplicates();
    max_iters = std::max(max_iters, r->iteration_count());
    active_sum += r->active_iterations();
  }
  m.iterations = static_cast<std::size_t>(max_iters);
  if (max_iters > 0) {
    m.av_act_proc =
        static_cast<double>(active_sum) / static_cast<double>(max_iters);
  }
  return m;
}

}  // namespace spb::mp
