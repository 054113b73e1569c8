// The binary bcast tree supports arbitrary roots via logical rotation;
// these tests pin down that machinery (the heap shape must hold no matter
// where the root sits) and run a pipelined broadcast from a non-zero root.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>

#include "coll/pipeline.h"
#include "net/topology.h"

namespace spb::coll {
namespace {

TEST(BcastTreeRotation, RootCanBeAnyPosition) {
  for (const int n : {2, 7, 16}) {
    for (int root = 0; root < n; ++root) {
      const BcastTree t = BcastTree::binary(n, root);
      EXPECT_EQ(t.root, root);
      EXPECT_EQ(t.parent[static_cast<std::size_t>(root)], -1);
      // Every position reachable, parents consistent with children.
      std::set<int> seen{root};
      std::vector<int> frontier{root};
      while (!frontier.empty()) {
        const int at = frontier.back();
        frontier.pop_back();
        for (const int c : t.children(at)) {
          EXPECT_EQ(t.parent[static_cast<std::size_t>(c)], at);
          EXPECT_TRUE(seen.insert(c).second);
          frontier.push_back(c);
        }
      }
      EXPECT_EQ(static_cast<int>(seen.size()), n) << "n=" << n
                                                  << " root=" << root;
    }
  }
}

TEST(BcastTreeRotation, PipelinedBcastFromMiddleRoot) {
  const int p = 11;
  const int root = 6;
  net::NetParams np;
  np.alpha_us = 1.0;
  np.per_hop_us = 0.1;
  np.bytes_per_us = 100.0;
  mp::CommParams cp;
  cp.send_overhead_us = 2.0;
  cp.recv_overhead_us = 2.0;
  mp::Runtime rt(std::make_shared<net::LinearArray>(p), np, cp,
                 net::RankMapping::identity(p));
  auto seq = std::make_shared<const std::vector<Rank>>([p] {
    std::vector<Rank> v(static_cast<std::size_t>(p));
    std::iota(v.begin(), v.end(), 0);
    return v;
  }());
  auto tree = std::make_shared<const BcastTree>(BcastTree::binary(p, root));
  std::vector<mp::Payload> data(static_cast<std::size_t>(p));
  data[root] = mp::Payload::original(root, 9000);
  for (Rank r = 0; r < p; ++r)
    rt.spawn(r, pipelined_bcast(rt.comm(r), seq, r, tree,
                                data[static_cast<std::size_t>(r)],
                                /*total_wire=*/9040, /*segment=*/1000));
  rt.run();
  for (const auto& d : data)
    EXPECT_EQ(d, mp::Payload::original(root, 9000));
}

}  // namespace
}  // namespace spb::coll
