#include "mp/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace spb::mp {

IterationCounters& RankMetrics::current() {
  SPB_CHECK(!finalized_);
  if (iters_.empty()) iters_.emplace_back();
  return iters_.back();
}

PhaseCounters& RankMetrics::phase_at(int phase) {
  SPB_CHECK(phase >= 0);
  if (phases_.size() <= static_cast<std::size_t>(phase))
    phases_.resize(static_cast<std::size_t>(phase) + 1);
  return phases_[static_cast<std::size_t>(phase)];
}

void RankMetrics::on_send(Bytes message_bytes, int phase) {
  ++sends_;
  bytes_sent_ += message_bytes;
  auto& it = current();
  ++it.sends;
  it.bytes += message_bytes;
  if (phase >= 0) {
    auto& ph = phase_at(phase);
    ++ph.sends;
    ph.bytes_sent += message_bytes;
  }
}

void RankMetrics::on_recv(Bytes message_bytes, bool blocked, SimTime wait_us,
                          int phase) {
  ++recvs_;
  bytes_received_ += message_bytes;
  if (blocked) {
    ++waits_;
    wait_us_ += wait_us;
  }
  auto& it = current();
  ++it.recvs;
  it.bytes += message_bytes;
  if (phase >= 0) {
    auto& ph = phase_at(phase);
    ++ph.recvs;
    ph.bytes_received += message_bytes;
    if (blocked) {
      ++ph.waits;
      ph.wait_us += wait_us;
    }
  }
}

void RankMetrics::on_compute(SimTime us, int phase) {
  compute_us_ += us;
  if (phase >= 0) phase_at(phase).compute_us += us;
}

void RankMetrics::phase_begin(int phase) { ++phase_at(phase).entries; }

void RankMetrics::phase_span(int phase, SimTime span_us) {
  phase_at(phase).span_us += span_us;
}

void RankMetrics::mark_iteration() {
  current();  // materialize the iteration even if it stayed silent
  iters_.emplace_back();
}

void RankMetrics::finalize() {
  if (finalized_) return;
  // Drop a trailing empty iteration created by the last mark_iteration().
  if (!iters_.empty() && !iters_.back().active()) iters_.pop_back();
  finalized_ = true;
}

void RankMetrics::remap_phases(const std::vector<int>& to_global) {
  SPB_CHECK(phases_.size() <= to_global.size());
  int max_id = -1;
  for (std::size_t i = 0; i < phases_.size(); ++i)
    max_id = std::max(max_id, to_global[i]);
  std::vector<PhaseCounters> remapped(static_cast<std::size_t>(max_id + 1));
  for (std::size_t i = 0; i < phases_.size(); ++i)
    remapped[static_cast<std::size_t>(to_global[i])] = phases_[i];
  phases_ = std::move(remapped);
}

std::uint32_t RankMetrics::congestion() const {
  std::uint32_t worst = 0;
  for (const auto& it : iters_) worst = std::max(worst, it.sends + it.recvs);
  return worst;
}

double RankMetrics::avg_message_bytes() const {
  const std::uint64_t n = sends_ + recvs_;
  if (n == 0) return 0;
  return static_cast<double>(bytes_sent_ + bytes_received_) /
         static_cast<double>(n);
}

std::vector<PhaseTotals> PhaseTotals::aggregate(
    std::span<const RankMetrics* const> ranks,
    const std::vector<std::string>& names) {
  std::vector<PhaseTotals> out(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) out[i].name = names[i];
  for (const RankMetrics* r : ranks) {
    const auto& phases = r->phases();
    for (std::size_t i = 0; i < phases.size() && i < out.size(); ++i) {
      const PhaseCounters& c = phases[i];
      PhaseTotals& t = out[i];
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
  std::size_t max_iters = 0;
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
    max_iters = std::max(max_iters, r->iterations().size());
  }
  m.iterations = max_iters;
  if (max_iters > 0) {
    std::uint64_t active_sum = 0;
    for (const RankMetrics* r : ranks)
      for (const auto& it : r->iterations())
        if (it.active()) ++active_sum;
    m.av_act_proc =
        static_cast<double>(active_sum) / static_cast<double>(max_iters);
  }
  return m;
}

}  // namespace spb::mp
