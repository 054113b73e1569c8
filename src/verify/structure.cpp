#include "verify/structure.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "mp/mailbox.h"
#include "mp/message.h"

namespace spb::verify {

namespace {

bool is_wildcard(const mp::ScheduleOp& recv) {
  return recv.peer == mp::kAnySource || recv.tag == mp::kAnyTag;
}

std::string class_str(const MsgClass& c) {
  return "(src=" + std::to_string(c.src) + ", tag=" + std::to_string(c.tag) +
         ")";
}

std::string filter_str(Rank src_filter, int tag_filter) {
  std::string src = src_filter == mp::kAnySource ? std::string("*")
                                                 : std::to_string(src_filter);
  std::string tag = tag_filter == mp::kAnyTag ? std::string("*")
                                              : std::to_string(tag_filter);
  return "(src=" + src + ", tag=" + tag + ")";
}

/// True iff every send of the segment carries only chunks from `allowed`.
bool sends_contained(const mp::Schedule& schedule, const Segment& seg,
                     const std::set<Rank>& allowed) {
  for (int sid : seg.send_ids) {
    for (Rank c : schedule.chunk_sources(schedule.op(sid))) {
      if (!allowed.contains(c)) return false;
    }
  }
  return true;
}

}  // namespace

std::string structure_issue_kind_name(StructureIssue::Kind kind) {
  switch (kind) {
    case StructureIssue::Kind::kUnboundSegment:
      return "unbound-segment";
    case StructureIssue::Kind::kClassCollision:
      return "class-collision";
    case StructureIssue::Kind::kSegmentDependency:
      return "segment-dependency";
    case StructureIssue::Kind::kStealHazard:
      return "steal-hazard";
  }
  return "unknown";
}

std::string Structure::to_string(int max_report) const {
  std::ostringstream os;
  os << (ok() ? "STRUCTURE OK" : "STRUCTURE BROKEN") << ": " << pools.size()
     << " pool(s)" << (rebinding_assumed ? " (dispatch assumption in use)" : "")
     << ", " << issues.size() << " issue(s)\n";
  int shown = 0;
  for (const auto& issue : issues) {
    if (shown++ >= max_report) {
      os << "  ... " << (issues.size() - static_cast<std::size_t>(max_report))
         << " more\n";
      break;
    }
    os << "  [" << structure_issue_kind_name(issue.kind) << "] "
       << issue.message << "\n";
  }
  return os.str();
}

Structure extract_structure(const mp::Schedule& schedule,
                            std::span<const Rank> sources) {
  Structure out;
  out.programs.resize(static_cast<std::size_t>(schedule.rank_count()));
  const auto& ops = schedule.ops();

  auto add_issue = [&out](StructureIssue::Kind kind, std::string msg, int op) {
    out.issues.push_back({kind, std::move(msg), op});
  };

  auto delivery_of = [&](int recv_id) {
    std::set<Rank> d;
    for (Rank c : schedule.chunk_sources(schedule.op(recv_id))) {
      d.insert(c);
    }
    return d;
  };

  for (Rank r = 0; r < schedule.rank_count(); ++r) {
    auto& items = out.programs[static_cast<std::size_t>(r)];

    // Chunk sources this rank may hold at the current program point
    // (grow-only over-approximation; repositioning forwards chunks away,
    // but a chunk once seen stays representable).
    std::set<Rank> held;
    if (std::find(sources.begin(), sources.end(), r) != sources.end()) {
      held.insert(r);
    }

    bool pool_open = false;
    Pool pool;
    std::set<Rank> held_before_pool;

    auto close_pool = [&]() {
      if (!pool_open) return;
      // Per-delivery sends must be computable from the one delivery that
      // triggered them.  The final segment is special: program text after
      // the drain loop is indistinguishable from the last iteration in a
      // linear trace, so when the tail only makes sense with the *whole*
      // pool delivered (gather-then-broadcast), it is re-attributed to
      // pool completion instead of flagged.
      std::vector<int> post_pool_sends;
      for (std::size_t i = 0; i < pool.segments.size(); ++i) {
        Segment& seg = pool.segments[i];
        if (seg.send_ids.empty()) continue;
        std::set<Rank> allowed = held_before_pool;
        if (seg.recv_id >= 0) {
          for (Rank c : delivery_of(seg.recv_id)) allowed.insert(c);
        }
        if (sends_contained(schedule, seg, allowed)) continue;
        if (i + 1 == pool.segments.size()) {
          // Tail rescue: hoist past the pool, re-check against everything
          // the pool delivered.
          std::set<Rank> after_pool = held_before_pool;
          for (const Segment& s : pool.segments) {
            for (Rank c : delivery_of(s.recv_id)) after_pool.insert(c);
          }
          if (sends_contained(schedule, seg, after_pool)) {
            post_pool_sends = std::move(seg.send_ids);
            seg.send_ids.clear();
            continue;
          }
        }
        add_issue(StructureIssue::Kind::kSegmentDependency,
                  "rank " + std::to_string(r) + " pool " +
                      filter_str(pool.src_filter, pool.tag_filter) +
                      ": segment of recv op " + std::to_string(seg.recv_id) +
                      " sends chunks delivered by sibling segments — "
                      "segment order would change what it can send",
                  seg.recv_id);
      }

      pool.has_sends = false;
      for (const Segment& seg : pool.segments) {
        if (!seg.send_ids.empty()) pool.has_sends = true;
      }
      if (pool.has_sends) out.rebinding_assumed = true;

      // Class bijection.
      std::map<MsgClass, int> seen;
      for (const Segment& seg : pool.segments) {
        if (seg.cls.src == kNoRank && seg.cls.tag == 0) continue;  // unbound
        auto [it, inserted] = seen.insert({seg.cls, seg.recv_id});
        if (!inserted) {
          add_issue(StructureIssue::Kind::kClassCollision,
                    "rank " + std::to_string(r) + " pool " +
                        filter_str(pool.src_filter, pool.tag_filter) +
                        ": class " + class_str(seg.cls) +
                        " consumed by two segments (recv ops " +
                        std::to_string(it->second) + " and " +
                        std::to_string(seg.recv_id) +
                        ") — delivery order decides which segment runs",
                    seg.recv_id);
        }
      }

      items.push_back(
          {Item::Kind::kPool, pool.segments.front().recv_id,
           static_cast<int>(out.pools.size())});
      // The pool's deliveries are held from here on.
      for (const Segment& seg : pool.segments) {
        for (Rank c : delivery_of(seg.recv_id)) held.insert(c);
      }
      out.pools.push_back(std::move(pool));
      pool = Pool{};
      pool_open = false;
      for (int sid : post_pool_sends) {
        items.push_back({Item::Kind::kSend, sid, -1});
      }
    };

    for (int id : schedule.ops_of_rank(r)) {
      const auto& op = ops[static_cast<std::size_t>(id)];
      if (op.is_send()) {
        if (pool_open) {
          pool.segments.back().send_ids.push_back(id);
        } else {
          items.push_back({Item::Kind::kSend, id, -1});
        }
        continue;
      }
      if (!is_wildcard(op)) {
        close_pool();
        items.push_back({Item::Kind::kPinnedRecv, id, -1});
        for (Rank c : schedule.chunk_sources(op)) held.insert(c);
        continue;
      }
      // Wildcard receive: extend the open pool or start a new one.
      if (!pool_open || pool.src_filter != op.peer ||
          pool.tag_filter != op.tag) {
        close_pool();
        pool_open = true;
        pool.rank = r;
        pool.src_filter = op.peer;
        pool.tag_filter = op.tag;
        held_before_pool = held;
      }
      Segment seg;
      seg.recv_id = id;
      if (op.match >= 0 && op.match < static_cast<int>(ops.size()) &&
          ops[static_cast<std::size_t>(op.match)].is_send()) {
        const auto& send = ops[static_cast<std::size_t>(op.match)];
        seg.cls = {send.rank, send.tag};
      } else {
        seg.cls = {kNoRank, 0};
        add_issue(StructureIssue::Kind::kUnboundSegment,
                  "rank " + std::to_string(r) + " wildcard recv op " +
                      std::to_string(id) +
                      " has no recorded match — the class that drove this "
                      "segment is unknown",
                  id);
      }
      pool.segments.push_back(std::move(seg));
    }
    close_pool();
  }

  // Steal safety.  An op's step is its position in its rank's program.
  for (const Pool& p : out.pools) {
    std::set<MsgClass> classes;
    for (const Segment& seg : p.segments) classes.insert(seg.cls);
    const int pool_start = schedule.op(p.segments.front().recv_id).step;
    for (const auto& op : ops) {
      if (!op.is_send() || op.peer != p.rank) continue;
      if (p.src_filter != mp::kAnySource && p.src_filter != op.rank) continue;
      if (p.tag_filter != mp::kAnyTag && p.tag_filter != op.tag) continue;
      const MsgClass c{op.rank, op.tag};
      if (classes.contains(c)) continue;  // FIFO pins which one the pool gets
      // Foreign compatible class: every such message must be off the table
      // before the pool's first receive posts, i.e. consumed earlier in
      // this rank's sequential program.
      const bool consumed_before =
          op.match >= 0 && op.match < static_cast<int>(ops.size()) &&
          schedule.op(op.match).step < pool_start;
      if (!consumed_before) {
        add_issue(StructureIssue::Kind::kStealHazard,
                  "rank " + std::to_string(p.rank) + " pool " +
                      filter_str(p.src_filter, p.tag_filter) +
                      " admits foreign class " + class_str(c) + " (send op " +
                      std::to_string(op.id) +
                      ") still in flight when the pool posts — a delivery "
                      "order exists where the pool steals it",
                  op.id);
      }
    }
  }

  return out;
}

}  // namespace spb::verify
