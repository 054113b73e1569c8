#include "net/network.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"

namespace spb::net {

NetworkModel::NetworkModel(std::shared_ptr<const Topology> topo,
                           NetParams params)
    : topo_(std::move(topo)), params_(params) {
  SPB_REQUIRE(topo_ != nullptr, "NetworkModel needs a topology");
  SPB_REQUIRE(params_.bytes_per_us > 0, "bandwidth must be positive");
  SPB_REQUIRE(params_.alpha_us >= 0 && params_.per_hop_us >= 0,
              "latencies must be non-negative");
  SPB_REQUIRE(params_.inject_channels >= 1 && params_.eject_channels >= 1,
              "need at least one NI channel per direction");
  const int link_space = topo_->link_space();
  link_scale_.resize(static_cast<std::size_t>(link_space));
  for (LinkId l = 0; l < link_space; ++l) {
    const double s = topo_->link_bandwidth_scale(l);
    SPB_REQUIRE(s > 0.0 && s <= 1.0,
                "link bandwidth scale must be in (0, 1], got " << s);
    link_scale_[static_cast<std::size_t>(l)] = s;
    if (s != 1.0) uniform_scale_ = false;
  }
  links_.resize(static_cast<std::size_t>(link_space));
  inject_.resize(static_cast<std::size_t>(topo_->node_count()) *
                 static_cast<std::size_t>(params_.inject_channels));
  eject_.resize(static_cast<std::size_t>(topo_->node_count()) *
                static_cast<std::size_t>(params_.eject_channels));
}

NetworkModel::Channel& NetworkModel::inject_channel(NodeId n, int idx) {
  return inject_[static_cast<std::size_t>(n) *
                     static_cast<std::size_t>(params_.inject_channels) +
                 static_cast<std::size_t>(idx)];
}

NetworkModel::Channel& NetworkModel::eject_channel(NodeId n, int idx) {
  return eject_[static_cast<std::size_t>(n) *
                    static_cast<std::size_t>(params_.eject_channels) +
                static_cast<std::size_t>(idx)];
}

int NetworkModel::pick_inject(NodeId n) const {
  int best = 0;
  for (int i = 1; i < params_.inject_channels; ++i) {
    const auto& c = inject_[static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(
                                    params_.inject_channels) +
                            static_cast<std::size_t>(i)];
    const auto& b = inject_[static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(
                                    params_.inject_channels) +
                            static_cast<std::size_t>(best)];
    if (c.free_at < b.free_at) best = i;
  }
  return best;
}

int NetworkModel::pick_eject(NodeId n) const {
  int best = 0;
  for (int i = 1; i < params_.eject_channels; ++i) {
    const auto& c = eject_[static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(
                                   params_.eject_channels) +
                           static_cast<std::size_t>(i)];
    const auto& b = eject_[static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(
                                   params_.eject_channels) +
                           static_cast<std::size_t>(best)];
    if (c.free_at < b.free_at) best = i;
  }
  return best;
}

void NetworkModel::set_fault_plan(fault::FaultPlanPtr plan) {
  if (plan != nullptr && plan->degrades_links()) {
    // The plan's degraded-link table must span this topology's links.
    for (const LinkId l : plan->degraded_links())
      SPB_REQUIRE(l >= 0 && l < topo_->link_space(),
                  "fault plan degrades link " << l
                      << " outside this topology's link space");
  }
  plan_ = std::move(plan);
  alt_memo_.clear();
  last_window_ = 0;
}

void NetworkModel::set_usage_probe(LinkUsageProbe* probe) {
  if (probe != nullptr) {
    SPB_REQUIRE(params_.model_contention,
                "link-usage probe needs contention modelling on");
    SPB_REQUIRE(probe->link_space() == topo_->link_space(),
                "link-usage probe sized for " << probe->link_space()
                    << " links, topology has " << topo_->link_space());
  }
  probe_ = probe;
}

void NetworkModel::roll_window(SimTime ready) {
  const std::uint64_t w = plan_->window_index(ready);
  if (w == last_window_) return;
  last_window_ = w;
  alt_memo_.clear();
  ++stats_.route_invalidations;
}

double NetworkModel::worst_divisor(std::span<const LinkId> path) const {
  double worst = 1.0;
  for (const LinkId l : path)
    worst = std::max(worst, plan_->bandwidth_divisor(l));
  return worst;
}

std::span<const LinkId> NetworkModel::faulted_path(
    NodeId src, NodeId dst, std::span<const LinkId> primary) {
  bool hit = false;
  for (const LinkId l : primary)
    if (plan_->link_degraded(l)) {
      hit = true;
      break;
    }
  if (!hit) return primary;

  const std::uint64_t key =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
      static_cast<std::uint32_t>(dst);
  auto it = alt_memo_.find(key);
  if (it == alt_memo_.end()) {
    std::vector<LinkId> alt = topo_->alt_route(src, dst);
    // Keep the alternate order only when it is strictly less degraded.
    if (worst_divisor({alt.data(), alt.size()}) >= worst_divisor(primary))
      alt.clear();
    it = alt_memo_.emplace(key, std::move(alt)).first;
  }
  if (it->second.empty()) return primary;
  ++stats_.detours;
  return {it->second.data(), it->second.size()};
}

double NetworkModel::uncontended_us(int hops, Bytes bytes) const {
  return params_.alpha_us + params_.per_hop_us * hops +
         static_cast<double>(bytes) / params_.bytes_per_us;
}

double NetworkModel::link_busy_us(LinkId id) const {
  SPB_REQUIRE(id >= 0 && id < topo_->link_space(), "link id out of range");
  return links_[static_cast<std::size_t>(id)].busy_us;
}

Transfer NetworkModel::reserve(NodeId src, NodeId dst, Bytes bytes,
                               SimTime ready) {
  SPB_REQUIRE(src != dst, "reserve() is for remote transfers; local copies "
                          "are handled by the runtime");
  SPB_REQUIRE(src >= 0 && src < topo_->node_count(), "src out of range");
  SPB_REQUIRE(dst >= 0 && dst < topo_->node_count(), "dst out of range");

  // Degradation windows flush the detour memo, so roll before taking a span.
  const bool faulted = plan_ != nullptr && plan_->degrades_links();
  if (faulted) roll_window(ready);

  topo_->route_into(src, dst, path_);
  std::span<const LinkId> path{path_.data(), path_.size()};
  const bool degrade_now = faulted && plan_->window_active(ready);
  if (degrade_now) path = faulted_path(src, dst, path);

  double serialize = static_cast<double>(bytes) / params_.bytes_per_us;
  // Two-tier topologies: the slowest link on the path bounds the wormhole's
  // drain rate.  Scales are <= 1, so uncontended_us stays a lower bound.
  if (!uniform_scale_) {
    double scale = 1.0;
    for (const LinkId l : path)
      scale = std::min(scale, link_scale_[static_cast<std::size_t>(l)]);
    serialize /= scale;
  }
  double extra_latency_us = 0;

  if (degrade_now) {
    double worst = 1.0;
    for (const LinkId l : path) {
      if (!plan_->link_degraded(l)) continue;
      worst = std::max(worst, plan_->bandwidth_divisor(l));
      extra_latency_us += params_.per_hop_us * (plan_->latency_factor(l) - 1.0);
    }
    if (worst > 1.0 || extra_latency_us > 0) {
      ++stats_.degraded_transfers;
      stats_.degraded_link_us += serialize * (worst - 1.0);
      serialize *= worst;
    }
  }

  Transfer t;
  t.hops = static_cast<int>(path.size());

  if (!params_.model_contention) {
    t.start = ready;
    t.inject_done = ready + serialize;
    t.arrive = ready + params_.alpha_us + params_.per_hop_us * t.hops +
               extra_latency_us + serialize;
    ++stats_.transfers;
    stats_.total_hops += static_cast<std::uint64_t>(t.hops);
    stats_.total_bytes += bytes;
    return t;
  }

  Channel& inj = inject_channel(src, pick_inject(src));
  Channel& ej = eject_channel(dst, pick_eject(dst));

  SimTime start = std::max(ready, std::max(inj.free_at, ej.free_at));
  for (const LinkId l : path)
    start = std::max(start, links_[static_cast<std::size_t>(l)].free_at);

  const SimTime until = start + serialize;
  inj.free_at = until;
  inj.busy_us += serialize;
  ej.free_at = until;
  ej.busy_us += serialize;
  for (const LinkId l : path) {
    Channel& c = links_[static_cast<std::size_t>(l)];
    if (probe_ != nullptr) {
      const auto i = static_cast<std::size_t>(l);
      // Queue time must be read off before free_at moves: it is how long
      // this transfer waited on this particular link.
      if (c.free_at > ready) probe_->queued_us[i] += c.free_at - ready;
      probe_->busy_us[i] += serialize;
      ++probe_->reservations[i];
    }
    c.free_at = until;
    c.busy_us += serialize;
    stats_.max_link_busy_us = std::max(stats_.max_link_busy_us, c.busy_us);
    stats_.total_link_busy_us += serialize;
  }

  t.start = start;
  t.inject_done = until;
  t.arrive = start + params_.alpha_us + params_.per_hop_us * t.hops +
             extra_latency_us + serialize;

  ++stats_.transfers;
  stats_.total_hops += static_cast<std::uint64_t>(t.hops);
  stats_.total_bytes += bytes;
  stats_.total_stall_us += start - ready;
  return t;
}

}  // namespace spb::net
