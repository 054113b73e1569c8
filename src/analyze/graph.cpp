#include "analyze/graph.h"

#include <algorithm>
#include <array>
#include <tuple>

namespace spb::analyze {

namespace {

auto key_of(const Channel& c) { return std::tie(c.dst, c.src, c.tag); }

}  // namespace

ScheduleGraph::ScheduleGraph(const mp::Schedule& schedule)
    : schedule_(&schedule) {
  const auto& ops = schedule.ops();
  channel_of_.assign(ops.size(), -1);
  source_.assign(ops.size(), -1);
  consumer_.assign(ops.size(), -1);

  // The sends in (dst, src, tag, id) order.  Two stable counting sorts
  // over the sends in id order, by src and then by dst, leave each
  // (dst, src) run in id order; a run that mixes tags (rare: two ranks
  // mostly talk on one tag) is then stably sorted by tag.
  const auto p = static_cast<std::size_t>(schedule.rank_count());
  std::vector<int> by_id;
  for (const mp::ScheduleOp& op : ops)
    if (op.is_send()) by_id.push_back(op.id);
  std::vector<int> count(p + 1);
  const auto counting_sort = [&](const std::vector<int>& in,
                                 std::vector<int>& out, auto key) {
    std::fill(count.begin(), count.end(), 0);
    for (const int id : in) ++count[key(id) + 1];
    for (std::size_t k = 0; k < p; ++k) count[k + 1] += count[k];
    out.resize(in.size());
    for (const int id : in)
      out[static_cast<std::size_t>(count[key(id)]++)] = id;
  };
  const auto op_of = [&ops](int id) -> const mp::ScheduleOp& {
    return ops[static_cast<std::size_t>(id)];
  };
  std::vector<int> by_src;
  counting_sort(by_id, by_src, [&](int id) {
    return static_cast<std::size_t>(op_of(id).rank);
  });
  counting_sort(by_src, sends_, [&](int id) {
    return static_cast<std::size_t>(op_of(id).peer);
  });
  const auto same_pair = [&](int a, int b) {
    return op_of(a).peer == op_of(b).peer && op_of(a).rank == op_of(b).rank;
  };
  const auto by_tag = [&](int a, int b) {
    return op_of(a).tag < op_of(b).tag;
  };
  for (auto run = sends_.begin(); run != sends_.end();) {
    auto end = run + 1;
    while (end != sends_.end() && same_pair(*run, *end)) ++end;
    if (!std::is_sorted(run, end, by_tag)) std::stable_sort(run, end, by_tag);
    run = end;
  }

  for (std::size_t i = 0; i < sends_.size(); ++i) {
    const mp::ScheduleOp& op = op_of(sends_[i]);
    const Channel c{op.rank, op.peer, op.tag};
    if (channels_.empty() || key_of(channels_.back()) != key_of(c)) {
      channels_.push_back(c);
      channel_begin_.push_back(static_cast<int>(i));
    }
    channel_of_[static_cast<std::size_t>(op.id)] = channel_count() - 1;
  }
  channel_begin_.push_back(static_cast<int>(sends_.size()));
}

ScheduleGraph ScheduleGraph::recorded(const mp::Schedule& schedule) {
  ScheduleGraph g(schedule);
  const auto& ops = schedule.ops();
  for (const mp::ScheduleOp& op : ops) {
    if (op.is_recv() && op.match >= 0 &&
        op.match < static_cast<int>(ops.size()) &&
        ops[static_cast<std::size_t>(op.match)].is_send())
      g.match(op.id, op.match);
  }
  return g;
}

std::span<const int> ScheduleGraph::channel_sends(int c) const {
  const auto i = static_cast<std::size_t>(c);
  return std::span<const int>(sends_).subspan(
      static_cast<std::size_t>(channel_begin_[i]),
      static_cast<std::size_t>(channel_begin_[i + 1] - channel_begin_[i]));
}

int ScheduleGraph::find_channel(Rank src, Rank dst, int tag) const {
  const Channel want{src, dst, tag};
  const auto it = std::lower_bound(
      channels_.begin(), channels_.end(), want,
      [](const Channel& a, const Channel& b) { return key_of(a) < key_of(b); });
  if (it == channels_.end() || key_of(*it) != key_of(want)) return -1;
  return static_cast<int>(it - channels_.begin());
}

std::pair<int, int> ScheduleGraph::channels_into(Rank dst) const {
  const auto [first, last] = std::equal_range(
      channels_.begin(), channels_.end(), Channel{kNoRank, dst, 0},
      [](const Channel& a, const Channel& b) { return a.dst < b.dst; });
  return {static_cast<int>(first - channels_.begin()),
          static_cast<int>(last - channels_.begin())};
}

void ScheduleGraph::match(int recv, int send) {
  source_[static_cast<std::size_t>(recv)] = send;
  consumer_[static_cast<std::size_t>(send)] = recv;
}

std::array<int, 2> ScheduleGraph::waits_on(int id) const {
  const mp::ScheduleOp& op = schedule_->op(id);
  const auto step = static_cast<std::size_t>(op.step);
  const int prev = step > 0 ? schedule_->ops_of_rank(op.rank)[step - 1] : -1;
  return {prev, source_[static_cast<std::size_t>(id)]};
}

std::vector<int> ScheduleGraph::topological_order() const {
  const std::size_t n = source_.size();
  // Successor lists in CSR form, each in ascending op order: u is listed
  // under every op it waits on, once per edge.
  std::vector<int> blockers(n, 0);
  std::vector<std::size_t> succ_begin(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (const int v : waits_on(static_cast<int>(u))) {
      if (v < 0) continue;
      ++blockers[u];
      ++succ_begin[static_cast<std::size_t>(v) + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) succ_begin[v + 1] += succ_begin[v];
  std::vector<int> succ(succ_begin[n]);
  for (std::size_t u = 0; u < n; ++u)
    for (const int v : waits_on(static_cast<int>(u)))
      if (v >= 0)
        succ[succ_begin[static_cast<std::size_t>(v)]++] = static_cast<int>(u);
  // The fill advanced each begin to its end; shift back by one list.
  for (std::size_t v = n; v > 0; --v) succ_begin[v] = succ_begin[v - 1];
  succ_begin[0] = 0;

  // FIFO Kahn, with the output itself as the queue.
  std::vector<int> order;
  order.reserve(n);
  for (std::size_t u = 0; u < n; ++u)
    if (blockers[u] == 0) order.push_back(static_cast<int>(u));
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto u = static_cast<std::size_t>(order[head]);
    for (std::size_t i = succ_begin[u]; i < succ_begin[u + 1]; ++i)
      if (--blockers[static_cast<std::size_t>(succ[i])] == 0)
        order.push_back(succ[i]);
  }
  return order;
}

std::vector<int> ScheduleGraph::find_cycle() const {
  const int n = static_cast<int>(source_.size());
  enum : unsigned char { kWhite, kGray, kBlack };
  std::vector<unsigned char> color(static_cast<std::size_t>(n), kWhite);
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int root = 0; root < n; ++root) {
    if (color[static_cast<std::size_t>(root)] != kWhite) continue;
    // Iterative DFS; the stack holds (node, next edge index).
    std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
    color[static_cast<std::size_t>(root)] = kGray;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const std::array<int, 2> deps = waits_on(u);
      if (next < deps.size()) {
        const int v = deps[next++];
        if (v < 0) continue;
        if (color[static_cast<std::size_t>(v)] == kGray) {
          // Back edge u -> v: walk parents from u back to v.
          std::vector<int> cycle{v};
          for (int w = u; w != v; w = parent[static_cast<std::size_t>(w)])
            cycle.push_back(w);
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
        if (color[static_cast<std::size_t>(v)] == kWhite) {
          color[static_cast<std::size_t>(v)] = kGray;
          parent[static_cast<std::size_t>(v)] = u;
          stack.push_back({v, 0});
        }
      } else {
        color[static_cast<std::size_t>(u)] = kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

std::vector<int> ScheduleGraph::message_levels(
    std::span<const int> order) const {
  const auto& ops = schedule_->ops();
  std::vector<int> level(ops.size(), 0);
  std::vector<int> rank_depth(
      static_cast<std::size_t>(schedule_->rank_count()), 0);
  for (const int id : order) {
    const mp::ScheduleOp& op = ops[static_cast<std::size_t>(id)];
    int& depth = rank_depth[static_cast<std::size_t>(op.rank)];
    if (op.is_send()) {
      level[static_cast<std::size_t>(id)] = depth + 1;
    } else if (const int sid = source_[static_cast<std::size_t>(id)];
               sid >= 0) {
      depth = std::max(depth, level[static_cast<std::size_t>(sid)]);
    }
  }
  return level;
}

int ScheduleGraph::op_chain_depth(std::span<const int> order) const {
  std::vector<int> depth(source_.size(), 0);
  int deepest = 0;
  for (const int u : order) {
    int d = 1;
    for (const int v : waits_on(u))
      if (v >= 0) d = std::max(d, depth[static_cast<std::size_t>(v)] + 1);
    depth[static_cast<std::size_t>(u)] = d;
    deepest = std::max(deepest, d);
  }
  return deepest;
}

}  // namespace spb::analyze
