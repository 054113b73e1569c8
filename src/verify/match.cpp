#include "verify/match.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "analyze/graph.h"
#include "mp/mailbox.h"
#include "mp/message.h"

namespace spb::verify {

namespace {

std::string op_brief(const mp::ScheduleOp& op) {
  std::ostringstream os;
  os << "rank " << op.rank << " step " << op.step << " "
     << (op.is_send() ? "send" : "recv") << " (peer=" << op.peer
     << ", tag=" << op.tag << ")";
  return os.str();
}

bool filter_admits(const mp::ScheduleOp& recv, const mp::ScheduleOp& send) {
  if (recv.peer != mp::kAnySource && recv.peer != send.rank) return false;
  if (recv.tag != mp::kAnyTag && recv.tag != send.tag) return false;
  return send.peer == recv.rank;
}

}  // namespace

std::string match_issue_kind_name(MatchIssue::Kind kind) {
  switch (kind) {
    case MatchIssue::Kind::kUnconsumedSend:
      return "unconsumed-send";
    case MatchIssue::Kind::kUnmatchedRecv:
      return "unmatched-recv";
    case MatchIssue::Kind::kDanglingEdge:
      return "dangling-edge";
    case MatchIssue::Kind::kBrokenBijection:
      return "broken-bijection";
    case MatchIssue::Kind::kFilterViolation:
      return "filter-violation";
    case MatchIssue::Kind::kSizeDisagreement:
      return "size-disagreement";
    case MatchIssue::Kind::kFifoViolation:
      return "fifo-violation";
  }
  return "unknown";
}

std::string MatchCheck::to_string(int max_report) const {
  std::ostringstream os;
  os << (ok() ? "MATCH OK" : "MATCH BROKEN") << ": " << sends << " sends, "
     << recvs << " recvs (" << wildcard_recvs << " wildcard), "
     << matched_pairs << " matched pairs, " << issues.size() << " issue(s)\n";
  int shown = 0;
  for (const auto& issue : issues) {
    if (shown++ >= max_report) {
      os << "  ... " << (issues.size() - static_cast<std::size_t>(max_report))
         << " more\n";
      break;
    }
    os << "  [" << match_issue_kind_name(issue.kind) << "] " << issue.message
       << "\n";
  }
  return os.str();
}

MatchCheck check_match_graph(const mp::Schedule& schedule) {
  MatchCheck out;
  const auto& ops = schedule.ops();
  const int n = static_cast<int>(ops.size());

  auto add = [&out](MatchIssue::Kind kind, std::string msg, int op) {
    out.issues.push_back({kind, std::move(msg), op});
  };

  auto valid_id = [n](int id) { return id >= 0 && id < n; };

  for (const auto& op : ops) {
    if (op.is_send()) {
      ++out.sends;
      if (op.match < 0) {
        add(MatchIssue::Kind::kUnconsumedSend,
            op_brief(op) + ": message never consumed by any receive", op.id);
        continue;
      }
      if (!valid_id(op.match) || !ops[static_cast<std::size_t>(op.match)].is_recv()) {
        add(MatchIssue::Kind::kDanglingEdge,
            op_brief(op) + ": match edge points at op " +
                std::to_string(op.match) + " which is not a receive",
            op.id);
        continue;
      }
      const auto& recv = ops[static_cast<std::size_t>(op.match)];
      if (recv.match != op.id) {
        add(MatchIssue::Kind::kBrokenBijection,
            op_brief(op) + ": claims recv op " + std::to_string(op.match) +
                " but that receive matched send op " +
                std::to_string(recv.match),
            op.id);
        continue;
      }
      ++out.matched_pairs;
      if (!filter_admits(recv, op)) {
        add(MatchIssue::Kind::kFilterViolation,
            op_brief(recv) + " consumed " + op_brief(op) +
                " which its (src, tag) filter does not admit",
            recv.id);
      }
      if (recv.wire_bytes != op.wire_bytes) {
        add(MatchIssue::Kind::kSizeDisagreement,
            op_brief(op) + ": sent " + std::to_string(op.wire_bytes) +
                "B but the receive recorded " +
                std::to_string(recv.wire_bytes) + "B",
            op.id);
      }
    } else {
      ++out.recvs;
      if (op.peer == mp::kAnySource || op.tag == mp::kAnyTag) {
        ++out.wildcard_recvs;
      }
      if (!op.completed || op.match < 0) {
        add(MatchIssue::Kind::kUnmatchedRecv,
            op_brief(op) + (op.completed
                                ? ": receive has no matched send on record"
                                : ": receive never completed"),
            op.id);
        continue;
      }
      if (!valid_id(op.match) || !ops[static_cast<std::size_t>(op.match)].is_send()) {
        add(MatchIssue::Kind::kDanglingEdge,
            op_brief(op) + ": match edge points at op " +
                std::to_string(op.match) + " which is not a send",
            op.id);
        continue;
      }
      const auto& send = ops[static_cast<std::size_t>(op.match)];
      if (send.match != op.id) {
        add(MatchIssue::Kind::kBrokenBijection,
            op_brief(op) + ": claims send op " + std::to_string(op.match) +
                " but that send was consumed by recv op " +
                std::to_string(send.match),
            op.id);
      }
    }
  }

  // FIFO safety.  The mailbox delivers one (src, dst, tag) channel in send
  // order, so the k-th send of a channel must be consumed by the k-th
  // receive (in the destination's program order) that took a message from
  // that channel — regardless of which filters those receives used.
  // Issues are reported per channel in (src, dst, tag) order.
  const auto graph = analyze::ScheduleGraph::recorded(schedule);
  std::vector<std::size_t> taken(
      static_cast<std::size_t>(graph.channel_count()), 0);
  std::vector<std::pair<int, MatchIssue>> fifo;  // (channel, issue)
  for (Rank r = 0; r < schedule.rank_count(); ++r) {
    for (int id : schedule.ops_of_rank(r)) {
      const int sid = graph.source_of(id);
      if (sid < 0) continue;
      const int c = graph.channel_of(sid);
      const std::span<const int> sends = graph.channel_sends(c);
      const std::size_t k = taken[static_cast<std::size_t>(c)]++;
      if (k >= sends.size() || sends[k] == sid) continue;
      const analyze::Channel& ch = graph.channel(c);
      fifo.push_back(
          {c,
           {MatchIssue::Kind::kFifoViolation,
            op_brief(ops[static_cast<std::size_t>(id)]) +
                ": consumed send op " + std::to_string(sid) +
                " but FIFO order on channel (" +
                std::to_string(ch.src) + " -> " + std::to_string(ch.dst) +
                ", tag " + std::to_string(ch.tag) + ") requires send op " +
                std::to_string(sends[k]),
            id}});
    }
  }
  const auto src_major = [&graph](int c) {
    const analyze::Channel& ch = graph.channel(c);
    return std::tie(ch.src, ch.dst, ch.tag);
  };
  std::stable_sort(fifo.begin(), fifo.end(), [&](const auto& a, const auto& b) {
    return src_major(a.first) < src_major(b.first);
  });
  for (auto& [c, issue] : fifo) out.issues.push_back(std::move(issue));

  return out;
}

DeadlockCheck check_deadlock_free(const mp::Schedule& schedule) {
  DeadlockCheck out;
  const auto& ops = schedule.ops();
  const auto graph = analyze::ScheduleGraph::recorded(schedule);
  const std::vector<int> order = graph.topological_order();
  if (order.size() == ops.size()) {
    out.op_chain_depth = graph.op_chain_depth(order);
    return out;
  }
  out.cycle = graph.find_cycle();
  std::ostringstream os;
  os << "wait-for cycle of " << out.cycle.size() << " ops:";
  for (int id : out.cycle) {
    os << "\n  " << schedule.describe(schedule.op(id));
  }
  out.message = os.str();
  return out;
}

}  // namespace spb::verify
