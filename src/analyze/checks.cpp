#include "analyze/checks.h"

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

#include "analyze/graph.h"
#include "common/check.h"
#include "common/math.h"
#include "mp/mailbox.h"
#include "mp/message.h"
#include "net/topology.h"

namespace spb::analyze {

namespace {

using mp::ScheduleOp;

/// Re-derives the send/recv matching into `graph` from filters alone,
/// honouring FIFO per (src, dst, tag) channel.  Recorded match edges only
/// break wildcard ties.
void derive_matching(ScheduleGraph& graph, std::vector<Violation>& out) {
  const mp::Schedule& sched = graph.schedule();
  const auto& ops = sched.ops();
  // Per channel: index of its first send that may still be unconsumed.
  std::vector<std::size_t> head(
      static_cast<std::size_t>(graph.channel_count()), 0);

  for (Rank d = 0; d < sched.rank_count(); ++d) {
    const auto [first, last] = graph.channels_into(d);
    for (const int rid : sched.ops_of_rank(d)) {
      const ScheduleOp& recv = ops[static_cast<std::size_t>(rid)];
      if (!recv.is_recv()) continue;

      const auto compatible = [&](Rank src, int tag) {
        const bool src_ok = recv.peer == mp::kAnySource || recv.peer == src;
        const bool tag_ok = recv.tag == mp::kAnyTag || recv.tag == tag;
        return src_ok && tag_ok;
      };

      // Prefer the recorded match when it is still available and passes
      // the filters (it resolves wildcard nondeterminism the way the run
      // actually went).
      int chosen = -1;
      if (recv.match >= 0) {
        const ScheduleOp& hint = ops[static_cast<std::size_t>(recv.match)];
        if (hint.is_send() && hint.peer == d &&
            graph.consumer_of(hint.id) < 0 && compatible(hint.rank, hint.tag))
          chosen = hint.id;
      }
      if (chosen < 0) {
        // Earliest-issued compatible send (FIFO heads only).
        for (int c = first; c < last; ++c) {
          const Channel& ch = graph.channel(c);
          if (!compatible(ch.src, ch.tag)) continue;
          const std::span<const int> sends = graph.channel_sends(c);
          std::size_t& h = head[static_cast<std::size_t>(c)];
          while (h < sends.size() && graph.consumer_of(sends[h]) >= 0) ++h;
          if (h == sends.size()) continue;
          if (chosen < 0 || sends[h] < chosen) chosen = sends[h];
        }
      }

      if (chosen < 0) {
        Violation v;
        v.kind = Violation::Kind::kUnmatchedRecv;
        v.op = rid;
        v.rank = recv.rank;
        v.step = recv.step;
        v.tag = recv.tag;
        std::ostringstream os;
        os << "no send satisfies " << sched.describe(recv)
           << " — the program hangs here";
        v.message = os.str();
        out.push_back(std::move(v));
        continue;
      }

      graph.match(rid, chosen);

      const ScheduleOp& send = ops[static_cast<std::size_t>(chosen)];
      // A completed receive recorded what actually arrived; its wire size
      // must agree with the send we matched it to.
      if (recv.completed && recv.wire_bytes != send.wire_bytes) {
        Violation v;
        v.kind = Violation::Kind::kSizeMismatch;
        v.op = rid;
        v.rank = recv.rank;
        v.step = recv.step;
        v.tag = send.tag;
        std::ostringstream os;
        os << sched.describe(recv) << " received " << recv.wire_bytes
           << "B but its matched send (" << sched.describe(send)
           << ") carries " << send.wire_bytes << "B";
        v.message = os.str();
        out.push_back(std::move(v));
      }
    }
  }

  for (const ScheduleOp& op : ops) {
    if (!op.is_send()) continue;
    if (graph.consumer_of(op.id) >= 0) continue;
    Violation v;
    v.kind = Violation::Kind::kUnreceivedSend;
    v.op = op.id;
    v.rank = op.rank;
    v.step = op.step;
    v.tag = op.tag;
    std::ostringstream os;
    os << "no receive on rank " << op.peer << " ever consumes "
       << sched.describe(op) << " — redundant or mis-tagged traffic";
    v.message = os.str();
    out.push_back(std::move(v));
  }
}

}  // namespace

std::string violation_kind_name(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kUnmatchedRecv: return "unmatched-recv";
    case Violation::Kind::kUnreceivedSend: return "unreceived-send";
    case Violation::Kind::kSizeMismatch: return "size-mismatch";
    case Violation::Kind::kDeadlockCycle: return "deadlock-cycle";
    case Violation::Kind::kChunkIntegrity: return "chunk-integrity";
    case Violation::Kind::kUnknownSource: return "unknown-source";
    case Violation::Kind::kProvenance: return "provenance";
    case Violation::Kind::kCoverage: return "coverage";
    case Violation::Kind::kQuality: return "quality-gate";
  }
  return "?";
}

std::string QualityMetrics::to_string() const {
  std::ostringstream os;
  os << "steps: max/rank " << max_rank_steps << ", critical depth "
     << message_rounds << " (lower bound " << round_lower_bound << ")\n"
     << "volume: payload " << total_payload_bytes << "B total, busiest rank "
     << max_rank_payload_bytes << "B (balanced lower bound "
     << per_rank_volume_lower_bound << "B/rank), wire " << total_wire_bytes
     << "B\n"
     << "redundancy: " << redundant_chunk_deliveries
     << " already-held chunk deliveries, " << redundant_payload_bytes
     << "B\n"
     << "link conflicts: worst " << max_link_conflicts
     << " same-level transfers on one link";
  if (worst_conflict_level >= 0)
    os << " (level " << worst_conflict_level << ")";
  return os.str();
}

std::string AnalysisReport::to_string(int max_report) const {
  std::ostringstream os;
  if (ok()) {
    os << "schedule OK\n";
  } else {
    os << violations.size() << " violation(s)\n";
    int shown = 0;
    for (const Violation& v : violations) {
      if (shown++ >= max_report) {
        os << "  ... and " << (violations.size() -
                               static_cast<std::size_t>(max_report))
           << " more\n";
        break;
      }
      os << "  [" << violation_kind_name(v.kind) << "] " << v.message
         << "\n";
    }
  }
  os << quality.to_string();
  return os.str();
}

LinkConflicts worst_link_conflicts(const mp::Schedule& sched,
                                   std::span<const int> level,
                                   const net::Topology& topology,
                                   const net::RankMapping& mapping) {
  const auto& ops = sched.ops();
  const auto level_of = [&level](const ScheduleOp& op) {
    return static_cast<std::size_t>(level[static_cast<std::size_t>(op.id)]);
  };
  // The sends grouped by level, in op-id order within a level (a
  // counting sort), so one flat per-link counter serves a level at a time.
  std::size_t levels = 0;
  for (const ScheduleOp& op : ops)
    if (op.is_send()) levels = std::max(levels, level_of(op) + 1);
  std::vector<int> begin(levels + 1, 0);
  for (const ScheduleOp& op : ops)
    if (op.is_send()) ++begin[level_of(op) + 1];
  for (std::size_t l = 0; l < levels; ++l) begin[l + 1] += begin[l];
  std::vector<int> by_level(static_cast<std::size_t>(begin[levels]));
  {
    std::vector<int> fill(begin.begin(), begin.end() - 1);
    for (const ScheduleOp& op : ops)
      if (op.is_send())
        by_level[static_cast<std::size_t>(fill[level_of(op)]++)] = op.id;
  }

  // Per level: its hottest link's count and the first op (in id order) to
  // reach it.  Over the levels, the maximum's level is that of the first
  // op to reach it, as if every send were counted in id order.
  LinkConflicts out;
  int first_op = std::numeric_limits<int>::max();
  std::vector<int> count(static_cast<std::size_t>(topology.link_space()), 0);
  std::vector<LinkId> touched;
  std::vector<LinkId> path;
  for (std::size_t l = 0; l < levels; ++l) {
    int level_max = 0;
    int level_first = -1;
    for (int k = begin[l]; k < begin[l + 1]; ++k) {
      const ScheduleOp& op = ops[static_cast<std::size_t>(
          by_level[static_cast<std::size_t>(k)])];
      topology.route_into(mapping.node_of(op.rank), mapping.node_of(op.peer),
                          path);
      for (const LinkId link : path) {
        int& c = count[static_cast<std::size_t>(link)];
        if (c++ == 0) touched.push_back(link);
        if (c > level_max) {
          level_max = c;
          level_first = op.id;
        }
      }
    }
    if (level_max > out.max ||
        (level_max == out.max && level_max > 0 && level_first < first_op)) {
      out.max = level_max;
      out.level = static_cast<int>(l);
      first_op = level_first;
    }
    for (const LinkId link : touched)
      count[static_cast<std::size_t>(link)] = 0;
    touched.clear();
  }
  return out;
}

AnalysisReport analyze_schedule(const mp::Schedule& sched,
                                const stop::Problem& pb,
                                const AnalysisOptions& options) {
  pb.validate();
  SPB_REQUIRE(sched.rank_count() == pb.p(),
              "schedule covers " << sched.rank_count()
                                 << " ranks but the problem has " << pb.p());
  AnalysisReport report;
  const auto& ops = sched.ops();

  // ---- 1. send/recv matching -----------------------------------------
  ScheduleGraph graph(sched);
  derive_matching(graph, report.violations);

  // ---- 2. wait-for graph ---------------------------------------------
  const std::vector<int> topo = graph.topological_order();
  if (topo.size() < ops.size()) {
    const std::vector<int> cycle = graph.find_cycle();
    Violation v;
    v.kind = Violation::Kind::kDeadlockCycle;
    v.op = cycle.front();
    v.rank = ops[static_cast<std::size_t>(cycle.front())].rank;
    v.step = ops[static_cast<std::size_t>(cycle.front())].step;
    std::ostringstream os;
    os << "wait-for cycle of " << cycle.size() << " op(s):";
    for (const int id : cycle)
      os << "\n      " << sched.describe(sched.op(id));
    os << "\n      ... back to the first op";
    v.message = os.str();
    report.violations.push_back(std::move(v));
  }

  // ---- 3. chunk conservation -----------------------------------------
  const int p = pb.p();
  // Rank -> index into pb.sources, -1 for a rank that is not a source.
  std::vector<int> source_index(static_cast<std::size_t>(p), -1);
  for (std::size_t i = 0; i < pb.sources.size(); ++i)
    source_index[static_cast<std::size_t>(pb.sources[i])] =
        static_cast<int>(i);
  const auto is_source = [&](Rank c) {
    return c >= 0 && c < p && source_index[static_cast<std::size_t>(c)] >= 0;
  };

  // Recorded chunk lists are sorted (payloads keep their chunks in source
  // order); only a hand-made or mutated list is copied and sorted.
  std::vector<Rank> unsorted;
  for (const ScheduleOp& op : ops) {
    if (!op.is_send()) continue;
    std::span<const Rank> sorted = sched.chunk_sources(op);
    if (!std::is_sorted(sorted.begin(), sorted.end())) {
      unsorted.assign(sorted.begin(), sorted.end());
      std::sort(unsorted.begin(), unsorted.end());
      sorted = unsorted;
    }
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const Rank c = sorted[i];
      if (i > 0 && sorted[i - 1] == c) {
        Violation v;
        v.kind = Violation::Kind::kChunkIntegrity;
        v.op = op.id;
        v.rank = op.rank;
        v.step = op.step;
        v.tag = op.tag;
        std::ostringstream os;
        os << sched.describe(op) << " carries the chunk of source " << c
           << " more than once in a single message";
        v.message = os.str();
        report.violations.push_back(std::move(v));
        break;
      }
      if (!is_source(c)) {
        Violation v;
        v.kind = Violation::Kind::kUnknownSource;
        v.op = op.id;
        v.rank = op.rank;
        v.step = op.step;
        v.tag = op.tag;
        std::ostringstream os;
        os << sched.describe(op) << " carries a chunk of rank " << c
           << ", which is not a source of this problem";
        v.message = os.str();
        report.violations.push_back(std::move(v));
      }
    }
  }

  // Held-chunk propagation in dependency order: a rank may only send what
  // it started with or already received; deliveries of already-held
  // chunks are the redundancy metric.  held[r * p + c]: rank r holds the
  // chunk of source c.
  std::vector<char> held(static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(p),
                         0);
  const auto holdings = [&](Rank r) {
    return held.data() +
           static_cast<std::size_t>(r) * static_cast<std::size_t>(p);
  };
  for (const Rank s : pb.sources) holdings(s)[s] = 1;

  std::size_t provenance_reported = 0;
  for (const int id : topo) {
    const ScheduleOp& op = ops[static_cast<std::size_t>(id)];
    char* const mine = holdings(op.rank);
    if (op.is_send()) {
      for (const Rank c : sched.chunk_sources(op)) {
        if (c < 0 || c >= p) continue;  // already an unknown-source
        if (mine[c]) continue;
        if (provenance_reported++ < 64) {
          Violation v;
          v.kind = Violation::Kind::kProvenance;
          v.op = op.id;
          v.rank = op.rank;
          v.step = op.step;
          v.tag = op.tag;
          std::ostringstream os;
          os << sched.describe(op) << " ships the chunk of source " << c
             << " which rank " << op.rank
             << " has neither originated nor received by step " << op.step;
          v.message = os.str();
          report.violations.push_back(std::move(v));
        }
      }
    } else {
      const int sid = graph.source_of(id);
      if (sid < 0) continue;  // unmatched: already reported
      for (const Rank c : sched.chunk_sources(sched.op(sid))) {
        if (c < 0 || c >= p) continue;
        if (!mine[c]) {
          mine[c] = 1;
          continue;
        }
        ++report.quality.redundant_chunk_deliveries;
        if (const int i = source_index[static_cast<std::size_t>(c)]; i >= 0)
          report.quality.redundant_payload_bytes +=
              pb.bytes_of_source(static_cast<std::size_t>(i));
      }
    }
  }

  // Coverage: every rank must end up holding every source's chunk.
  std::size_t coverage_reported = 0;
  std::vector<Rank> missing;
  for (Rank r = 0; r < p; ++r) {
    missing.clear();
    for (const Rank s : pb.sources)
      if (!holdings(r)[s]) missing.push_back(s);
    if (missing.empty()) continue;
    if (coverage_reported++ >= 64) continue;
    Violation v;
    v.kind = Violation::Kind::kCoverage;
    v.rank = r;
    std::ostringstream os;
    os << "rank " << r << " never obtains " << missing.size() << " of "
       << pb.s() << " chunks (missing sources:";
    for (std::size_t i = 0; i < missing.size() && i < 8; ++i)
      os << " " << missing[i];
    if (missing.size() > 8) os << " ...";
    os << ")";
    v.message = os.str();
    report.violations.push_back(std::move(v));
  }

  // ---- 4. schedule quality -------------------------------------------
  QualityMetrics& q = report.quality;
  Bytes source_bytes_total = 0;
  for (std::size_t i = 0; i < pb.sources.size(); ++i)
    source_bytes_total += pb.bytes_of_source(i);
  q.round_lower_bound =
      pb.p() > pb.s()
          ? ilog2_ceil(ceil_div(pb.p(), pb.s()))
          : 0;
  q.per_rank_volume_lower_bound =
      source_bytes_total * static_cast<Bytes>(pb.p() - 1) /
      static_cast<Bytes>(pb.p());

  std::vector<Bytes> sent_payload(static_cast<std::size_t>(pb.p()), 0);
  for (Rank r = 0; r < pb.p(); ++r)
    q.max_rank_steps = std::max(
        q.max_rank_steps, static_cast<int>(sched.ops_of_rank(r).size()));
  for (const ScheduleOp& op : ops) {
    if (!op.is_send()) continue;
    q.total_payload_bytes += op.payload_bytes;
    q.total_wire_bytes += op.wire_bytes;
    sent_payload[static_cast<std::size_t>(op.rank)] += op.payload_bytes;
  }
  for (const Bytes b : sent_payload)
    q.max_rank_payload_bytes = std::max(q.max_rank_payload_bytes, b);

  // Message rounds: doubling argument, rounds >= ceil(log2(p/s)).
  const std::vector<int> level = graph.message_levels(topo);
  for (const int l : level) q.message_rounds = std::max(q.message_rounds, l);

  if (pb.machine.topology) {
    const LinkConflicts worst = worst_link_conflicts(
        sched, level, *pb.machine.topology, pb.machine.mapping);
    q.max_link_conflicts = worst.max;
    q.worst_conflict_level = worst.level;
  }

  if (options.max_step_slack > 0 && q.round_lower_bound > 0 &&
      q.max_rank_steps >
          options.max_step_slack * q.round_lower_bound) {
    Violation v;
    v.kind = Violation::Kind::kQuality;
    std::ostringstream os;
    os << "step gate: busiest rank runs " << q.max_rank_steps
       << " comm ops against a lower bound of " << q.round_lower_bound
       << " rounds (slack " << options.max_step_slack << ")";
    v.message = os.str();
    report.violations.push_back(std::move(v));
  }
  if (options.max_volume_slack > 0 && q.per_rank_volume_lower_bound > 0 &&
      static_cast<double>(q.max_rank_payload_bytes) >
          options.max_volume_slack *
              static_cast<double>(q.per_rank_volume_lower_bound)) {
    Violation v;
    v.kind = Violation::Kind::kQuality;
    std::ostringstream os;
    os << "volume gate: busiest rank sends " << q.max_rank_payload_bytes
       << "B against a balanced lower bound of "
       << q.per_rank_volume_lower_bound << "B (slack "
       << options.max_volume_slack << ")";
    v.message = os.str();
    report.violations.push_back(std::move(v));
  }

  return report;
}

}  // namespace spb::analyze
