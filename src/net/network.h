// Contention-aware network timing model.
//
// We approximate wormhole routing with full-path circuit reservation: a
// message of B bytes from node u to node v claims every directed link on
// its dimension-ordered route — plus u's injection channel and v's ejection
// channel — for its serialization time B/bandwidth, starting at the
// earliest instant all of them are free.  The head of the message then
// arrives alpha + hops*t_hop after the reservation starts, and the tail
// B/bandwidth later.
//
// This is deliberately the simplest model that exhibits the phenomena the
// paper measures: hot-spot congestion (2-Step's gather at P0 serializes on
// P0's ejection channel), source-side serialization (PersAlltoAll's p-1
// sends queue on the source's injection channel), and link sharing between
// concurrent transfers (the row/column phases of the Br_* algorithms).
// Known approximation: all path links are reserved for the same window, so
// a blocked message holds links it has not reached yet — which is in fact
// how a blocked wormhole worm behaves.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "fault/fault.h"
#include "net/topology.h"

namespace spb::net {

/// Timing/bandwidth parameters of the interconnect (not of the software
/// layer on top; see mp::CommParams for send/receive overheads).
struct NetParams {
  /// Fixed network latency per message (routing setup), microseconds.
  double alpha_us = 10.0;
  /// Per-hop delay of the message head, microseconds.
  double per_hop_us = 0.05;
  /// Link bandwidth in bytes per microsecond (1 byte/us = 1 MB/s).
  double bytes_per_us = 100.0;
  /// Injection (node-to-network) DMA channels per node.
  int inject_channels = 1;
  /// Ejection (network-to-node) DMA channels per node.
  int eject_channels = 1;
  /// If false, link reservation is skipped entirely and only the latency /
  /// bandwidth terms apply (the ablation_contention bench flips this).
  bool model_contention = true;
};

/// Result of reserving a transfer.
struct Transfer {
  /// When the reservation actually started (>= the requested ready time).
  SimTime start = 0;
  /// When the source's injection channel is free again (sender may proceed).
  SimTime inject_done = 0;
  /// When the complete message is available at the destination node.
  SimTime arrive = 0;
  /// Hop count of the route used.
  int hops = 0;
};

/// Aggregated contention statistics, for diagnostics and the metric tables.
struct NetworkStats {
  std::uint64_t transfers = 0;
  std::uint64_t total_hops = 0;
  double total_link_busy_us = 0;   // sum over network links of busy time
  double max_link_busy_us = 0;     // the hottest network link
  double total_stall_us = 0;       // sum of (start - ready) over transfers
  Bytes total_bytes = 0;
  // Fault-plan effects (all zero when no plan is installed).
  std::uint64_t degraded_transfers = 0;  // transfers that crossed a bad link
  std::uint64_t detours = 0;             // transfers re-routed around one
  std::uint64_t route_invalidations = 0;  // degradation-window memo flushes
  double degraded_link_us = 0;  // extra serialization paid to degraded links
};

/// Per-link usage accumulator, filled by NetworkModel::reserve when
/// installed via set_usage_probe.  Mirrors the fault-plan hook: the model
/// holds a raw pointer, null by default, so unobserved runs pay nothing.
/// All vectors are indexed by LinkId over the topology's link space.
struct LinkUsageProbe {
  /// Serialization time each link spent occupied by transfers.
  std::vector<double> busy_us;
  /// Time transfers spent waiting because a link on their path was still
  /// held by an earlier reservation (each stalled transfer charges its full
  /// stall to every link of its path that was busy at its ready time).
  std::vector<double> queued_us;
  /// Number of reservations that crossed each link.
  std::vector<std::uint64_t> reservations;

  explicit LinkUsageProbe(int link_space)
      : busy_us(static_cast<std::size_t>(link_space), 0.0),
        queued_us(static_cast<std::size_t>(link_space), 0.0),
        reservations(static_cast<std::size_t>(link_space), 0) {}
  LinkUsageProbe() = default;

  int link_space() const { return static_cast<int>(busy_us.size()); }
};

class NetworkModel {
 public:
  NetworkModel(std::shared_ptr<const Topology> topo, NetParams params);

  /// Reserves the route from src to dst for a message of `bytes` bytes that
  /// becomes ready to inject at `ready`.  src != dst.
  Transfer reserve(NodeId src, NodeId dst, Bytes bytes, SimTime ready);

  /// Installs (or clears, with nullptr) the fault plan whose degraded links
  /// slow transfers down.  Flushes the detour memo; the plan must have been
  /// built for this topology's link space.
  void set_fault_plan(fault::FaultPlanPtr plan);
  const fault::FaultPlanPtr& fault_plan() const { return plan_; }

  /// Installs (or clears, with nullptr) a link-usage accumulator.  The
  /// probe must outlive the model (or be cleared first) and span this
  /// topology's link space.  Contention modelling must be on — without
  /// reservations there is nothing to observe.
  void set_usage_probe(LinkUsageProbe* probe);
  const LinkUsageProbe* usage_probe() const { return probe_; }

  const Topology& topology() const { return *topo_; }
  const NetParams& params() const { return params_; }
  const NetworkStats& stats() const { return stats_; }

  /// Pure timing of an uncontended transfer (used in tests as the lower
  /// bound of reserve()).
  double uncontended_us(int hops, Bytes bytes) const;

  /// Busy time accumulated on one network link (tests, diagnostics).
  double link_busy_us(LinkId id) const;

 private:
  struct Channel {
    SimTime free_at = 0;
    double busy_us = 0;
  };

  Channel& inject_channel(NodeId n, int idx);
  Channel& eject_channel(NodeId n, int idx);
  /// Least-loaded (earliest-free) channel among a node's k channels.
  int pick_inject(NodeId n) const;
  int pick_eject(NodeId n) const;

  /// Flushes the detour memo when `ready` crosses into a new degradation
  /// window (windowed plans only).
  void roll_window(SimTime ready);
  /// The path a faulted transfer takes: the primary route, or the
  /// alternate-dimension-order route when that avoids more degradation.
  /// Decisions are memoized per (src, dst) until the window rolls.
  std::span<const LinkId> faulted_path(NodeId src, NodeId dst,
                                       std::span<const LinkId> primary);
  /// Worst serialization divisor over a path's degraded links (1 if clean).
  double worst_divisor(std::span<const LinkId> path) const;

  std::shared_ptr<const Topology> topo_;
  NetParams params_;
  // The route of the transfer being reserved: re-walked per reserve into
  // this one buffer, whose capacity is reused (Topology::route_into).
  std::vector<LinkId> path_;
  // Per-link bandwidth scale from Topology::link_bandwidth_scale, sampled
  // once at construction; uniform_scale_ short-circuits the per-path min
  // for the (common) topologies where every link runs at the full rate.
  std::vector<double> link_scale_;
  bool uniform_scale_ = true;
  std::vector<Channel> links_;    // indexed by LinkId
  std::vector<Channel> inject_;   // node * inject_channels + idx
  std::vector<Channel> eject_;    // node * eject_channels + idx
  NetworkStats stats_;
  fault::FaultPlanPtr plan_;      // null = no faults, zero overhead
  LinkUsageProbe* probe_ = nullptr;  // null = no accounting, zero overhead
  std::uint64_t last_window_ = 0;
  // Detour memo: packed (src, dst) -> alternate route; an empty vector
  // records "primary is no worse, keep it".
  std::unordered_map<std::uint64_t, std::vector<LinkId>> alt_memo_;
};

}  // namespace spb::net
