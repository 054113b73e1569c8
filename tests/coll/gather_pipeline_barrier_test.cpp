// Tests for the remaining collectives: gather-to-root, the pipelined
// broadcast (trees + segmentation), and the dissemination barrier.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "coll/barrier.h"
#include "coll/gather.h"
#include "coll/pipeline.h"
#include "common/check.h"
#include "net/topology.h"

namespace spb::coll {
namespace {

mp::Runtime make_runtime(int p) {
  net::NetParams np;
  np.alpha_us = 1.0;
  np.per_hop_us = 0.1;
  np.bytes_per_us = 100.0;
  mp::CommParams cp;
  cp.send_overhead_us = 5.0;
  cp.recv_overhead_us = 5.0;
  return mp::Runtime(std::make_shared<net::LinearArray>(p), np, cp,
                     net::RankMapping::identity(p));
}

std::shared_ptr<const std::vector<Rank>> identity_seq(int p) {
  std::vector<Rank> v(static_cast<std::size_t>(p));
  std::iota(v.begin(), v.end(), 0);
  return std::make_shared<const std::vector<Rank>>(std::move(v));
}

// ----------------------------------------------------------------- gather

TEST(Gather, RootCollectsAllSenders) {
  const int p = 7;
  mp::Runtime rt = make_runtime(p);
  auto senders = std::make_shared<const std::vector<Rank>>(
      std::vector<Rank>{1, 3, 6});
  std::vector<mp::Payload> data(static_cast<std::size_t>(p));
  for (const Rank s : *senders)
    data[static_cast<std::size_t>(s)] = mp::Payload::original(s, 100);
  for (Rank r = 0; r < p; ++r)
    rt.spawn(r, gather_to_root(rt.comm(r), 0, senders,
                               data[static_cast<std::size_t>(r)]));
  rt.run();
  EXPECT_EQ(data[0], mp::Payload::of({{1, 100}, {3, 100}, {6, 100}}));
  // Senders keep their originals.
  EXPECT_EQ(data[3], mp::Payload::original(3, 100));
  // Bystanders stay empty.
  EXPECT_TRUE(data[2].empty());
}

TEST(Gather, RootMayItselfBeASender) {
  const int p = 4;
  mp::Runtime rt = make_runtime(p);
  auto senders = std::make_shared<const std::vector<Rank>>(
      std::vector<Rank>{0, 2});
  std::vector<mp::Payload> data(static_cast<std::size_t>(p));
  data[0] = mp::Payload::original(0, 10);
  data[2] = mp::Payload::original(2, 10);
  for (Rank r = 0; r < p; ++r)
    rt.spawn(r, gather_to_root(rt.comm(r), 0, senders,
                               data[static_cast<std::size_t>(r)]));
  rt.run();
  EXPECT_EQ(data[0], mp::Payload::of({{0, 10}, {2, 10}}));
}

TEST(Gather, RootEjectionIsTheHotSpot) {
  // s senders serialize on the root's ejection channel: the gather of 2k
  // bytes x 8 senders must take at least 8 serializations — the 2-Step
  // congestion the paper measures.
  const int p = 9;
  mp::Runtime rt = make_runtime(p);
  std::vector<Rank> snd(8);
  std::iota(snd.begin(), snd.end(), 1);
  auto senders = std::make_shared<const std::vector<Rank>>(std::move(snd));
  std::vector<mp::Payload> data(static_cast<std::size_t>(p));
  for (const Rank s : *senders)
    data[static_cast<std::size_t>(s)] = mp::Payload::original(s, 2000);
  for (Rank r = 0; r < p; ++r)
    rt.spawn(r, gather_to_root(rt.comm(r), 0, senders,
                               data[static_cast<std::size_t>(r)]));
  const auto out = rt.run();
  // wire ~2040 bytes -> 20.4us serialization each, 8 of them back to back.
  EXPECT_GE(out.makespan_us, 8 * 20.4);
}

// --------------------------------------------------------------- pipeline

TEST(BcastTree, FromHalvingStructure) {
  const BcastTree t = BcastTree::from_halving(8, 0);
  EXPECT_EQ(t.root, 0);
  EXPECT_EQ(t.parent[0], -1);
  // Root sends to 4, then 2, then 1 (halving order, big subtree first).
  const std::span<const int> root_kids = t.children(0);
  EXPECT_EQ(std::vector<int>(root_kids.begin(), root_kids.end()),
            (std::vector<int>{4, 2, 1}));
  for (int pos = 1; pos < 8; ++pos) EXPECT_GE(t.parent[pos], 0);
}

/// The reference for from_halving: the tree read off a computed
/// single-source HalvingSchedule.  A position's sends are its children,
/// iteration by iteration, and its one receive names its parent.
struct ScheduleTree {
  std::vector<int> parent;
  std::vector<std::vector<int>> children;
};

ScheduleTree tree_from_schedule(int n, int root_pos) {
  std::vector<char> active(static_cast<std::size_t>(n), 0);
  active[static_cast<std::size_t>(root_pos)] = 1;
  const HalvingSchedule sched = HalvingSchedule::compute(active);
  ScheduleTree t;
  t.parent.assign(static_cast<std::size_t>(n), -1);
  t.children.resize(static_cast<std::size_t>(n));
  for (int iter = 0; iter < sched.iterations(); ++iter) {
    for (int pos = 0; pos < n; ++pos) {
      for (const Action& a : sched.actions(iter, pos)) {
        if (a.type == Action::Type::kSend) {
          t.children[static_cast<std::size_t>(pos)].push_back(a.peer);
        } else {
          EXPECT_EQ(t.parent[static_cast<std::size_t>(pos)], -1)
              << "position " << pos << " received twice";
          t.parent[static_cast<std::size_t>(pos)] = a.peer;
        }
      }
    }
  }
  return t;
}

TEST(BcastTree, FromHalvingMatchesScheduleTree) {
  for (int n = 1; n <= 600; ++n) {
    for (int root = 0; root < n; ++root) {
      const BcastTree t = BcastTree::from_halving(n, root);
      const ScheduleTree want = tree_from_schedule(n, root);
      ASSERT_EQ(t.root, root);
      ASSERT_EQ(t.parent, want.parent) << "n=" << n << " root=" << root;
      for (int pos = 0; pos < n; ++pos) {
        const std::span<const int> kids = t.children(pos);
        ASSERT_EQ(std::vector<int>(kids.begin(), kids.end()),
                  want.children[static_cast<std::size_t>(pos)])
            << "n=" << n << " root=" << root << " pos=" << pos;
      }
    }
  }
}

TEST(BcastTree, BinaryHasBoundedFanout) {
  for (const int n : {1, 2, 5, 16, 100}) {
    const BcastTree t = BcastTree::binary(n, 0);
    int reachable = 0;
    for (int pos = 0; pos < n; ++pos) {
      EXPECT_LE(t.children(pos).size(), 2u);
      if (pos == t.root) {
        EXPECT_EQ(t.parent[static_cast<std::size_t>(pos)], -1);
      } else {
        EXPECT_GE(t.parent[static_cast<std::size_t>(pos)], 0);
      }
      ++reachable;
    }
    EXPECT_EQ(reachable, n);
  }
}

TEST(BcastTree, EveryTreeCoversAllPositions) {
  // Walk parents to the root from every node: no cycles, full coverage.
  for (const int n : {3, 10, 31}) {
    for (const BcastTree& t :
         {BcastTree::from_halving(n, 0), BcastTree::binary(n, 0)}) {
      for (int pos = 0; pos < n; ++pos) {
        int at = pos;
        int steps = 0;
        while (at != t.root) {
          at = t.parent[static_cast<std::size_t>(at)];
          ASSERT_GE(at, 0);
          ASSERT_LE(++steps, n);
        }
      }
    }
  }
}

struct PipelineRun {
  SimTime makespan = 0;
  std::vector<mp::Payload> data;
  std::uint64_t sends = 0;
};

PipelineRun run_pipeline(int p, Bytes payload_bytes, Bytes segment,
                         const BcastTree& tree) {
  mp::Runtime rt = make_runtime(p);
  auto seq = identity_seq(p);
  auto tree_ptr = std::make_shared<const BcastTree>(tree);
  PipelineRun result;
  result.data.assign(static_cast<std::size_t>(p), mp::Payload{});
  result.data[0] = mp::Payload::original(0, payload_bytes);
  const Bytes total_wire = payload_bytes + 40;  // header + one chunk
  for (Rank r = 0; r < p; ++r)
    rt.spawn(r, pipelined_bcast(rt.comm(r), seq, r, tree_ptr,
                                result.data[static_cast<std::size_t>(r)],
                                total_wire, segment));
  const auto out = rt.run();
  result.makespan = out.makespan_us;
  result.sends = out.metrics.total_sends;
  return result;
}

TEST(PipelinedBcast, DeliversPayloadToAllRanks) {
  const auto r = run_pipeline(13, 5000, 1024, BcastTree::binary(13, 0));
  for (const auto& d : r.data)
    EXPECT_EQ(d, mp::Payload::original(0, 5000));
}

TEST(PipelinedBcast, SegmentCountDrivesMessageCount) {
  // 5040 wire bytes in 1024-byte segments = 5 segments; 12 tree edges.
  const auto r = run_pipeline(13, 5000, 1024, BcastTree::binary(13, 0));
  EXPECT_EQ(r.sends, 5u * 12u);
}

TEST(PipelinedBcast, PipeliningBeatsStoreAndForwardForBigMessages) {
  // One segment = store-and-forward through the tree; fine segments
  // overlap transfers and must finish sooner for a large message.
  const Bytes big = 200000;
  const auto coarse =
      run_pipeline(16, big, big + 40, BcastTree::binary(16, 0));
  const auto fine = run_pipeline(16, big, 8192, BcastTree::binary(16, 0));
  EXPECT_LT(fine.makespan, coarse.makespan * 0.7)
      << "fine=" << fine.makespan << " coarse=" << coarse.makespan;
}

TEST(PipelinedBcast, WorksOnHalvingTreeToo) {
  const auto r = run_pipeline(9, 3000, 512, BcastTree::from_halving(9, 0));
  for (const auto& d : r.data)
    EXPECT_EQ(d, mp::Payload::original(0, 3000));
}

TEST(PipelinedBcast, SingleRankNoop) {
  const auto r = run_pipeline(1, 100, 64, BcastTree::binary(1, 0));
  EXPECT_EQ(r.sends, 0u);
  EXPECT_EQ(r.data[0], mp::Payload::original(0, 100));
}

// ---------------------------------------------------------------- barrier

sim::Task compute_then_barrier(mp::Comm& comm, double pre, SimTime& done) {
  co_await comm.compute(pre);
  co_await dissemination_barrier(comm);
  done = comm.now();
}

TEST(Barrier, NobodyLeavesBeforeTheLastEnters) {
  const int p = 8;
  mp::Runtime rt = make_runtime(p);
  std::vector<SimTime> done(static_cast<std::size_t>(p), -1);
  for (Rank r = 0; r < p; ++r) {
    const double pre = r == 5 ? 500.0 : 1.0;  // rank 5 is late
    rt.spawn(r, compute_then_barrier(rt.comm(r), pre,
                                     done[static_cast<std::size_t>(r)]));
  }
  rt.run();
  for (Rank r = 0; r < p; ++r)
    EXPECT_GE(done[static_cast<std::size_t>(r)], 500.0) << "rank " << r;
}

TEST(Barrier, WorksForNonPowerOfTwoAndSingle) {
  for (const int p : {1, 3, 7}) {
    mp::Runtime rt = make_runtime(p);
    std::vector<SimTime> done(static_cast<std::size_t>(p), -1);
    for (Rank r = 0; r < p; ++r)
      rt.spawn(r, compute_then_barrier(rt.comm(r), 1.0,
                                       done[static_cast<std::size_t>(r)]));
    rt.run();
    for (Rank r = 0; r < p; ++r)
      EXPECT_GE(done[static_cast<std::size_t>(r)], 1.0);
  }
}

}  // namespace
}  // namespace spb::coll
