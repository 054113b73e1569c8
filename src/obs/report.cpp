#include "obs/report.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "obs/json.h"

namespace spb::obs {

namespace {

void write_metrics(JsonWriter& w, const mp::RunMetrics& m) {
  w.key("metrics");
  w.begin_object();
  w.field("congestion", static_cast<std::uint64_t>(m.congestion));
  w.field("wait", m.max_waits);
  w.field("send_rec", m.max_send_recv);
  w.field("av_msg_lgth", m.av_msg_lgth, 1);
  w.field("av_act_proc", m.av_act_proc, 2);
  w.field("iterations", static_cast<std::uint64_t>(m.iterations));
  w.field("total_sends", m.total_sends);
  w.field("total_recvs", m.total_recvs);
  w.field("total_bytes_sent", static_cast<std::uint64_t>(m.total_bytes_sent));
  w.end_object();
}

void write_faults(JsonWriter& w, const mp::RunMetrics& m) {
  w.key("faults");
  w.begin_object();
  w.field("transit_drops", m.transit_drops);
  w.field("retransmits", m.retransmits);
  w.field("duplicates", m.duplicates);
  w.end_object();
}

void write_network(JsonWriter& w, const net::NetworkStats& n) {
  w.key("network");
  w.begin_object();
  w.field("transfers", n.transfers);
  w.field("total_hops", n.total_hops);
  w.field("total_bytes", static_cast<std::uint64_t>(n.total_bytes));
  w.field("total_link_busy_us", n.total_link_busy_us, 1);
  w.field("max_link_busy_us", n.max_link_busy_us, 1);
  w.field("total_stall_us", n.total_stall_us, 1);
  w.field("degraded_transfers", n.degraded_transfers);
  w.field("detours", n.detours);
  w.end_object();
}

void write_phases(JsonWriter& w,
                  const std::vector<mp::PhaseTotals>& phases) {
  w.key("phases");
  w.begin_array();
  for (const mp::PhaseTotals& ph : phases) {
    w.begin_object();
    w.field("name", std::string_view(ph.name));
    w.field("entries", ph.entries);
    w.field("sends", ph.sends);
    w.field("recvs", ph.recvs);
    w.field("waits", ph.waits);
    w.field("bytes_sent", static_cast<std::uint64_t>(ph.bytes_sent));
    w.field("bytes_received",
            static_cast<std::uint64_t>(ph.bytes_received));
    w.field("wait_us", ph.wait_us, 1);
    w.field("compute_us", ph.compute_us, 1);
    w.field("total_span_us", ph.total_span_us, 1);
    w.field("max_span_us", ph.max_span_us, 1);
    w.end_object();
  }
  w.end_array();
}

void write_links(JsonWriter& w, const net::LinkUsageProbe& usage,
                 const net::Topology* topo) {
  w.key("links");
  w.begin_object();

  const std::size_t n = usage.busy_us.size();
  double max_busy = 0;
  double total_busy = 0;
  double total_queued = 0;
  std::size_t used = 0;
  for (std::size_t l = 0; l < n; ++l) {
    max_busy = std::max(max_busy, usage.busy_us[l]);
    total_busy += usage.busy_us[l];
    total_queued += usage.queued_us[l];
    if (usage.reservations[l] > 0) ++used;
  }
  w.field("link_space", static_cast<std::uint64_t>(n));
  w.field("links_used", static_cast<std::uint64_t>(used));
  w.field("max_busy_us", max_busy, 1);
  w.field("total_busy_us", total_busy, 1);
  w.field("total_queued_us", total_queued, 1);

  // Histogram of used links over 8 equal busy-time buckets [0, max].
  w.key("busy_histogram");
  w.begin_array();
  constexpr int kBuckets = 8;
  std::vector<std::uint64_t> hist(kBuckets, 0);
  if (max_busy > 0) {
    for (std::size_t l = 0; l < n; ++l) {
      if (usage.reservations[l] == 0) continue;
      const int b = std::min(
          kBuckets - 1,
          static_cast<int>(usage.busy_us[l] / max_busy * kBuckets));
      ++hist[static_cast<std::size_t>(b)];
    }
  }
  for (const std::uint64_t h : hist) w.value(h);
  w.end_array();

  // Hottest links, busy-time order (ties by id: deterministic output).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&usage](std::size_t a, std::size_t b) {
              if (usage.busy_us[a] != usage.busy_us[b])
                return usage.busy_us[a] > usage.busy_us[b];
              return a < b;
            });
  w.key("top");
  w.begin_array();
  int shown = 0;
  for (const std::size_t l : order) {
    if (shown >= 8 || usage.busy_us[l] <= 0) break;
    ++shown;
    w.begin_object();
    w.field("link", static_cast<std::uint64_t>(l));
    if (topo != nullptr)
      w.field("desc", std::string_view(
                          topo->describe_link(static_cast<LinkId>(l))));
    w.field("busy_us", usage.busy_us[l], 1);
    w.field("queued_us", usage.queued_us[l], 1);
    w.field("reservations", usage.reservations[l]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_planner(JsonWriter& w, const PlannerSection& ps) {
  w.key("planner");
  w.begin_object();
  w.field("signature", std::string_view(ps.signature));
  w.field("planned_bytes", static_cast<std::uint64_t>(ps.planned_bytes));
  w.field("cache_hit", ps.cache_hit);
  w.key("cache");
  w.begin_object();
  w.field("hits", ps.cache_hits);
  w.field("misses", ps.cache_misses);
  w.field("evictions", ps.cache_evictions);
  const std::uint64_t lookups = ps.cache_hits + ps.cache_misses;
  w.field("hit_rate",
          lookups == 0 ? 0.0
                       : static_cast<double>(ps.cache_hits) /
                             static_cast<double>(lookups),
          4);
  w.end_object();
  w.key("ranked");
  w.begin_array();
  for (const PlannerSection::Entry& e : ps.ranked) {
    w.begin_object();
    w.field("algorithm", std::string_view(e.algorithm));
    w.field("predicted_us", e.predicted_us, 3);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void write_run_report(std::ostream& os, const ReportContext& ctx,
                      const stop::RunResult& result,
                      const net::Topology* topo,
                      const PlannerSection* planner) {
  JsonWriter w(os);
  w.begin_object();
  w.field("algorithm", std::string_view(ctx.algorithm));
  w.field("machine", std::string_view(ctx.machine));
  w.field("distribution", std::string_view(ctx.distribution));
  w.field("sources", ctx.sources);
  w.field("message_bytes", static_cast<std::uint64_t>(ctx.message_bytes));
  w.field("p", ctx.p);
  w.field("seed", ctx.seed);
  if (!ctx.faults.empty()) w.field("fault_spec", std::string_view(ctx.faults));

  w.field("time_us", result.time_us, 3);
  w.field("time_ms", result.time_us / 1000.0, 4);
  w.field("events", result.outcome.events);
  w.field("peak_queue_depth",
          static_cast<std::uint64_t>(result.outcome.peak_queue_depth));

  write_metrics(w, result.outcome.metrics);
  write_faults(w, result.outcome.metrics);
  write_network(w, result.outcome.network);
  write_phases(w, result.outcome.phases);
  if (result.link_usage.link_space() > 0)
    write_links(w, result.link_usage, topo);
  if (planner != nullptr) write_planner(w, *planner);
  w.end_object();
  os << "\n";
}

void write_serve_report(std::ostream& os, const ServeSection& serve) {
  JsonWriter w(os);
  w.begin_object();
  w.field("machine", std::string_view(serve.machine));
  w.field("workers", serve.workers);

  w.key("requests");
  w.begin_object();
  w.field("plan", serve.requests_plan);
  w.field("execute", serve.requests_execute);
  w.field("stats", serve.requests_stats);
  w.field("errors", serve.requests_error);
  w.field("shed", serve.requests_shed);
  w.field("total", serve.requests_plan + serve.requests_execute +
                       serve.requests_stats + serve.requests_error +
                       serve.requests_shed);
  w.end_object();

  w.key("queue");
  w.begin_object();
  w.field("limit", serve.queue_limit);
  w.field("max_depth", serve.queue_max_depth);
  w.end_object();

  ServeSection::CacheShard total;
  for (const ServeSection::CacheShard& s : serve.cache_shards) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.coalesced += s.coalesced;
    total.size += s.size;
  }
  w.key("cache");
  w.begin_object();
  w.field("shards", static_cast<std::uint64_t>(serve.cache_shards.size()));
  w.field("capacity", serve.cache_capacity);
  w.field("size", total.size);
  w.field("hits", total.hits);
  w.field("misses", total.misses);
  w.field("evictions", total.evictions);
  w.field("coalesced", total.coalesced);
  const std::uint64_t lookups = total.hits + total.misses;
  w.field("hit_rate",
          lookups == 0 ? 0.0
                       : static_cast<double>(total.hits) /
                             static_cast<double>(lookups),
          4);
  w.key("per_shard");
  w.begin_array();
  for (const ServeSection::CacheShard& s : serve.cache_shards) {
    w.begin_object();
    w.field("hits", s.hits);
    w.field("misses", s.misses);
    w.field("evictions", s.evictions);
    w.field("coalesced", s.coalesced);
    w.field("size", s.size);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("latency");
  w.begin_object();
  w.field("count", serve.latency_count);
  w.field("p50_us", serve.latency_p50_us, 3);
  w.field("p95_us", serve.latency_p95_us, 3);
  w.field("p99_us", serve.latency_p99_us, 3);
  w.field("max_us", serve.latency_max_us, 3);
  w.end_object();

  if (serve.wall_ms > 0) {
    w.key("throughput");
    w.begin_object();
    w.field("wall_ms", serve.wall_ms, 3);
    w.field("requests_per_sec", serve.requests_per_sec, 1);
    w.end_object();
  }
  w.end_object();
  os << "\n";
}

}  // namespace spb::obs
