#include "verify/explore.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "analyze/graph.h"
#include "common/check.h"

namespace spb::verify {

namespace {

constexpr std::size_t kMaxPoolSegments = 64;  // mask width

struct SegmentPlan {
  int cid = -1;                // class the recorded run delivered here
  std::vector<int> send_cids;  // classes this segment issues on delivery
};

struct PoolPlan {
  std::vector<SegmentPlan> segments;
};

struct ItemPlan {
  Item::Kind kind = Item::Kind::kSend;
  int cid = -1;   // kSend: issued class; kPinnedRecv: consumed class
  int pool = -1;  // kPool: index into Model::pools
};

struct Model {
  int rank_count = 0;
  std::vector<std::vector<ItemPlan>> items;
  /// send_free_from[r][i]: rank r's program from item i on issues no
  /// sends — the rank is a pure drain and is frozen during exploration.
  std::vector<std::vector<char>> send_free_from;
  std::vector<PoolPlan> pools;
  /// Per class id: the graph's channels (same ids), then one supply-less
  /// class per waiting item whose channel carries no send.
  std::vector<analyze::Channel> classes;

  std::string class_name(int cid) const {
    const analyze::Channel& c = classes[static_cast<std::size_t>(cid)];
    return "(" + std::to_string(c.src) + " -> " + std::to_string(c.dst) +
           ", tag " + std::to_string(c.tag) + ")";
  }
};

struct State {
  std::vector<int> idx;             // per rank: current item
  std::vector<std::uint64_t> mask;  // per rank: consumed pool segments
  std::vector<int> pending;         // per class: issued minus consumed
};

class Explorer {
 public:
  Explorer(const Model& model, const ExploreOptions& options)
      : m_(model), opt_(options) {}

  ExploreResult run() {
    State st;
    st.idx.assign(static_cast<std::size_t>(m_.rank_count), 0);
    st.mask.assign(static_cast<std::size_t>(m_.rank_count), 0);
    st.pending.assign(m_.classes.size(), 0);
    dfs(std::move(st));
    result_.states = visited_.size();
    result_.exhaustive = !cap_hit_ && !result_.deadlock_found;
    result_.deterministic = result_.exhaustive && result_.terminals >= 1 &&
                            anomaly_.empty();
    if (cap_hit_) {
      result_.note = "state budget exhausted at " +
                     std::to_string(opt_.max_states) + " lumped states";
    } else if (!anomaly_.empty()) {
      result_.note = anomaly_;
    }
    return result_;
  }

 private:
  bool rank_done(const State& st, int r) const {
    return st.idx[static_cast<std::size_t>(r)] >=
           static_cast<int>(m_.items[static_cast<std::size_t>(r)].size());
  }

  bool rank_frozen(const State& st, int r) const {
    return m_.send_free_from[static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(
                                st.idx[static_cast<std::size_t>(r)])] != 0;
  }

  void consume(State& st, int r, const PoolPlan& pool, int seg) const {
    const SegmentPlan& sp = pool.segments[static_cast<std::size_t>(seg)];
    --st.pending[static_cast<std::size_t>(sp.cid)];
    st.mask[static_cast<std::size_t>(r)] |= std::uint64_t{1} << seg;
    for (int c : sp.send_cids) ++st.pending[static_cast<std::size_t>(c)];
  }

  /// Unconsumed segments whose class has a pending message.
  std::vector<int> available(const State& st, int r,
                             const PoolPlan& pool) const {
    std::vector<int> avail;
    const std::uint64_t mask = st.mask[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < pool.segments.size(); ++i) {
      if ((mask >> i) & 1) continue;
      if (st.pending[static_cast<std::size_t>(pool.segments[i].cid)] > 0) {
        avail.push_back(static_cast<int>(i));
      }
    }
    return avail;
  }

  /// Deterministic moves to fixpoint: issue sends (eager), consume pinned
  /// receives (FIFO-unique), take forced single-choice pool deliveries.
  /// Frozen (send-free-remainder) ranks do not move at all.
  void auto_advance(State& st) const {
    bool changed = true;
    while (changed) {
      changed = false;
      for (int r = 0; r < m_.rank_count; ++r) {
        const auto& items = m_.items[static_cast<std::size_t>(r)];
        while (!rank_done(st, r) && !rank_frozen(st, r)) {
          int& idx = st.idx[static_cast<std::size_t>(r)];
          const ItemPlan& it = items[static_cast<std::size_t>(idx)];
          if (it.kind == Item::Kind::kSend) {
            ++st.pending[static_cast<std::size_t>(it.cid)];
            ++idx;
            changed = true;
            continue;
          }
          if (it.kind == Item::Kind::kPinnedRecv) {
            if (st.pending[static_cast<std::size_t>(it.cid)] <= 0) break;
            --st.pending[static_cast<std::size_t>(it.cid)];
            ++idx;
            changed = true;
            continue;
          }
          const PoolPlan& pool = m_.pools[static_cast<std::size_t>(it.pool)];
          if (std::popcount(st.mask[static_cast<std::size_t>(r)]) ==
              static_cast<int>(pool.segments.size())) {
            st.mask[static_cast<std::size_t>(r)] = 0;
            ++idx;
            changed = true;
            continue;
          }
          const std::vector<int> avail = available(st, r, pool);
          if (avail.size() != 1) break;  // 0 = parked, >=2 = branch point
          consume(st, r, pool, avail.front());
          changed = true;
        }
      }
    }
  }

  std::string encode(const State& st) const {
    std::string key;
    key.reserve(st.idx.size() * 12);
    for (std::size_t r = 0; r < st.idx.size(); ++r) {
      const auto idx = static_cast<std::uint32_t>(st.idx[r]);
      for (int b = 0; b < 4; ++b) {
        key.push_back(static_cast<char>((idx >> (8 * b)) & 0xff));
      }
      for (int b = 0; b < 8; ++b) {
        key.push_back(static_cast<char>((st.mask[r] >> (8 * b)) & 0xff));
      }
    }
    return key;
  }

  void describe_parked(const State& st, int r, std::ostringstream& os) const {
    const auto& items = m_.items[static_cast<std::size_t>(r)];
    const int idx = st.idx[static_cast<std::size_t>(r)];
    os << "\n  rank " << r << " parked at item " << idx << "/" << items.size();
    const ItemPlan& it = items[static_cast<std::size_t>(idx)];
    if (it.kind == Item::Kind::kPinnedRecv) {
      os << ": pinned recv waiting for "
         << m_.class_name(it.cid);
      return;
    }
    if (it.kind != Item::Kind::kPool) return;
    const PoolPlan& pool = m_.pools[static_cast<std::size_t>(it.pool)];
    os << ": pool waiting for";
    const std::uint64_t mask = st.mask[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < pool.segments.size(); ++i) {
      if ((mask >> i) & 1) continue;
      os << " " << m_.class_name(pool.segments[i].cid);
    }
  }

  void record_deadlock(const State& st, std::string_view how) {
    if (result_.deadlock_found) return;
    result_.deadlock_found = true;
    std::ostringstream os;
    os << "stuck state (" << how << "):";
    for (int r = 0; r < m_.rank_count; ++r) {
      if (!rank_done(st, r)) describe_parked(st, r, os);
    }
    result_.deadlock_witness = os.str();
  }

  /// At the unique all-active-done state, frozen drains are resolved
  /// directly: every remaining receive must have supply, in any order —
  /// drains issue nothing, so they cannot feed each other.
  void resolve_passive(State st) {
    int frozen = 0;
    for (int r = 0; r < m_.rank_count; ++r) {
      if (rank_done(st, r)) continue;
      ++frozen;
      const auto& items = m_.items[static_cast<std::size_t>(r)];
      while (!rank_done(st, r)) {
        int& idx = st.idx[static_cast<std::size_t>(r)];
        const ItemPlan& it = items[static_cast<std::size_t>(idx)];
        if (it.kind == Item::Kind::kPinnedRecv) {
          if (st.pending[static_cast<std::size_t>(it.cid)] <= 0) {
            record_deadlock(st, "drain starvation");
            return;
          }
          --st.pending[static_cast<std::size_t>(it.cid)];
          ++idx;
          continue;
        }
        SPB_CHECK_MSG(it.kind == Item::Kind::kPool,
                      "send item in a send-free remainder");
        const PoolPlan& pool = m_.pools[static_cast<std::size_t>(it.pool)];
        const std::uint64_t mask = st.mask[static_cast<std::size_t>(r)];
        for (std::size_t i = 0; i < pool.segments.size(); ++i) {
          if ((mask >> i) & 1) continue;
          if (st.pending[static_cast<std::size_t>(pool.segments[i].cid)] <=
              0) {
            record_deadlock(st, "drain starvation");
            return;
          }
          --st.pending[static_cast<std::size_t>(pool.segments[i].cid)];
        }
        st.mask[static_cast<std::size_t>(r)] = 0;
        ++idx;
      }
    }
    result_.passive_ranks = std::max(result_.passive_ranks, frozen);
    ++result_.terminals;
    for (std::size_t c = 0; c < st.pending.size(); ++c) {
      if (st.pending[c] != 0 && anomaly_.empty()) {
        anomaly_ = "terminal state leaves " + std::to_string(st.pending[c]) +
                   " undelivered message(s) of class " +
                   m_.class_name(static_cast<int>(c));
      }
    }
  }

  void dfs(State st) {
    if (cap_hit_ || result_.deadlock_found) return;
    auto_advance(st);
    if (!visited_.insert(encode(st)).second) return;
    if (visited_.size() > opt_.max_states) {
      cap_hit_ = true;
      return;
    }

    int branch_rank = -1;
    std::vector<int> branch_avail;
    bool all_active_done = true;
    for (int r = 0; r < m_.rank_count; ++r) {
      if (rank_done(st, r) || rank_frozen(st, r)) continue;
      all_active_done = false;
      if (branch_rank >= 0) continue;
      const ItemPlan& it =
          m_.items[static_cast<std::size_t>(r)]
                  [static_cast<std::size_t>(st.idx[static_cast<std::size_t>(r)])];
      if (it.kind != Item::Kind::kPool) continue;  // parked pinned recv
      std::vector<int> avail =
          available(st, r, m_.pools[static_cast<std::size_t>(it.pool)]);
      if (avail.size() >= 2) {
        branch_rank = r;
        branch_avail = std::move(avail);
      }
    }

    if (branch_rank >= 0) {
      // Persistent set: pool moves on other ranks stay enabled whatever
      // this rank does, so exploring this rank's choices alone is sound.
      ++result_.branch_points;
      const ItemPlan& it =
          m_.items[static_cast<std::size_t>(branch_rank)][static_cast<std::size_t>(
              st.idx[static_cast<std::size_t>(branch_rank)])];
      const PoolPlan& pool = m_.pools[static_cast<std::size_t>(it.pool)];
      for (int seg : branch_avail) {
        State next = st;
        consume(next, branch_rank, pool, seg);
        dfs(std::move(next));
        if (cap_hit_ || result_.deadlock_found) return;
      }
      return;
    }

    if (!all_active_done) {
      record_deadlock(st, "no rank can move");
      return;
    }
    resolve_passive(std::move(st));
  }

  const Model& m_;
  const ExploreOptions& opt_;
  ExploreResult result_;
  std::unordered_set<std::string> visited_;
  std::string anomaly_;
  bool cap_hit_ = false;
};

/// Lowers the schedule + structure into the class-indexed model the
/// explorer walks.  Returns false (with a note) when a pool exceeds the
/// segment-mask width.
bool build_model(const mp::Schedule& schedule, const Structure& structure,
                 Model& model, std::string& note) {
  model.rank_count = schedule.rank_count();
  const auto& ops = schedule.ops();
  const analyze::ScheduleGraph graph(schedule);

  for (int c = 0; c < graph.channel_count(); ++c)
    model.classes.push_back(graph.channel(c));
  auto cid_of = [&](Rank dst, Rank src, int tag) {
    const int c = graph.find_channel(src, dst, tag);
    if (c >= 0) return c;
    // No send on this channel: a class without supply, so whatever waits
    // on it parks forever and the explorer reports a deadlock.
    model.classes.push_back({src, dst, tag});
    return static_cast<int>(model.classes.size()) - 1;
  };

  for (const Pool& pool : structure.pools) {
    if (pool.segments.size() > kMaxPoolSegments) {
      note = "pool on rank " + std::to_string(pool.rank) + " has " +
             std::to_string(pool.segments.size()) +
             " segments, beyond the segment-mask width";
      return false;
    }
    PoolPlan plan;
    for (const Segment& seg : pool.segments) {
      SegmentPlan sp;
      // An unbound class (mutated schedule) is supply-less.
      sp.cid = cid_of(pool.rank, seg.cls.src, seg.cls.tag);
      for (int sid : seg.send_ids)
        sp.send_cids.push_back(graph.channel_of(sid));
      plan.segments.push_back(std::move(sp));
    }
    model.pools.push_back(std::move(plan));
  }

  model.items.resize(static_cast<std::size_t>(model.rank_count));
  model.send_free_from.resize(static_cast<std::size_t>(model.rank_count));
  for (Rank r = 0; r < model.rank_count; ++r) {
    const auto& program = structure.programs[static_cast<std::size_t>(r)];
    auto& items = model.items[static_cast<std::size_t>(r)];
    for (const Item& item : program) {
      ItemPlan ip;
      ip.kind = item.kind;
      if (item.kind == Item::Kind::kSend) {
        ip.cid = graph.channel_of(item.op);
      } else if (item.kind == Item::Kind::kPinnedRecv) {
        const auto& op = ops[static_cast<std::size_t>(item.op)];
        ip.cid = cid_of(op.rank, op.peer, op.tag);
      } else {
        ip.pool = item.pool;
      }
      items.push_back(ip);
    }
    auto& free_from = model.send_free_from[static_cast<std::size_t>(r)];
    free_from.assign(items.size() + 1, 1);
    for (std::size_t i = items.size(); i-- > 0;) {
      bool has_sends = false;
      if (items[i].kind == Item::Kind::kSend) {
        has_sends = true;
      } else if (items[i].kind == Item::Kind::kPool) {
        const PoolPlan& pool =
            model.pools[static_cast<std::size_t>(items[i].pool)];
        for (const SegmentPlan& sp : pool.segments) {
          if (!sp.send_cids.empty()) has_sends = true;
        }
      }
      free_from[i] =
          static_cast<char>(!has_sends && free_from[i + 1] != 0 ? 1 : 0);
    }
  }
  return true;
}

}  // namespace

ExploreResult explore(const mp::Schedule& schedule, const Structure& structure,
                      const ExploreOptions& options) {
  ExploreResult bail;
  Model model;
  if (!build_model(schedule, structure, model, bail.note)) {
    return bail;
  }
  return Explorer(model, options).run();
}

}  // namespace spb::verify
