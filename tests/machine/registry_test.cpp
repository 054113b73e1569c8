// The machine registry: the `--machine list` catalogue is golden-pinned
// (every CLI prints this byte-for-byte), every registered example spec must
// round-trip through from_name, and the unknown-spec error must enumerate
// the registered patterns.
//
// Regenerate the catalogue after an intentional registry change:
//   SPB_UPDATE_GOLDEN=1 ./test_machine --gtest_filter=Registry.*
#include "machine/registry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "machine/config.h"
#include "net/topology.h"

namespace spb::machine {
namespace {

std::string what_of(const std::string& spec) {
  try {
    from_name(spec);
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected '" << spec << "' to be rejected";
  return "";
}

TEST(Registry, DescribeMatchesGolden) {
  const std::string got = Registry::instance().describe();
  const std::string golden =
      std::string(SPB_TEST_DATA_DIR) + "/golden/machine_list.txt";
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test binary.
  if (std::getenv("SPB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden);
    ASSERT_TRUE(out.good()) << "cannot write " << golden;
    out << got;
    GTEST_SKIP() << "golden updated: " << golden;
  }
  std::ifstream in(golden);
  ASSERT_TRUE(in.good()) << "missing golden " << golden
                         << " (run with SPB_UPDATE_GOLDEN=1 to create)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "--machine list output changed; regenerate with SPB_UPDATE_GOLDEN=1 "
         "if intentional";
}

TEST(Registry, EveryEntryHasDescriptionAndExample) {
  ASSERT_FALSE(Registry::instance().entries().empty());
  for (const MachineSpec& e : Registry::instance().entries()) {
    EXPECT_FALSE(e.pattern.empty());
    EXPECT_FALSE(e.description.empty()) << e.pattern;
    EXPECT_FALSE(e.example.empty()) << e.pattern;
    EXPECT_FALSE(e.prefix.empty()) << e.pattern;
    EXPECT_EQ(e.pattern.rfind(e.prefix, 0), 0u)
        << e.pattern << ": pattern must start with its prefix";
  }
}

TEST(Registry, ExampleSpecsRoundTripThroughFromName) {
  for (const MachineSpec& e : Registry::instance().entries()) {
    const MachineConfig m = from_name(e.example);
    EXPECT_GE(m.p, 1) << e.example;
    EXPECT_FALSE(m.name.empty()) << e.example;
    EXPECT_NE(m.topology, nullptr) << e.example;
    EXPECT_EQ(m.rows * m.cols, m.p) << e.example;
  }
}

TEST(Registry, UnknownSpecEnumeratesEveryPattern) {
  const std::string msg = what_of("vax11x780");
  EXPECT_NE(msg.find("unknown machine 'vax11x780'"), std::string::npos) << msg;
  for (const MachineSpec& e : Registry::instance().entries()) {
    EXPECT_NE(msg.find(e.pattern), std::string::npos)
        << "error must list pattern " << e.pattern << ": " << msg;
    EXPECT_NE(msg.find(e.example), std::string::npos)
        << "error must list example " << e.example << ": " << msg;
  }
}

TEST(Registry, GrammarListsEveryPatternAndList) {
  const std::string g = Registry::instance().grammar();
  for (const MachineSpec& e : Registry::instance().entries())
    EXPECT_NE(g.find(e.pattern), std::string::npos) << g;
  EXPECT_NE(g.find("list"), std::string::npos) << g;
}

TEST(Registry, NoPrefixShadowsALaterEntry) {
  // parse() dispatches on the *first* matching prefix, so an entry whose
  // prefix is a prefix of a later entry's prefix would silently claim that
  // entry's specs (a hypothetical "t3" before "t3d", or "torus" before a
  // future "torus3d").  The ctor SPB_REQUIREs this; mirror the invariant
  // here so a failure names the offending pair even if someone relaxes
  // the ctor check.
  const auto& entries = Registry::instance().entries();
  for (std::size_t a = 0; a < entries.size(); ++a)
    for (std::size_t b = a + 1; b < entries.size(); ++b)
      EXPECT_NE(entries[b].prefix.rfind(entries[a].prefix, 0), 0u)
          << "prefix '" << entries[a].prefix << "' (entry " << a
          << ") shadows later prefix '" << entries[b].prefix << "' (entry "
          << b << ")";
}

TEST(Registry, SimilarPrefixesDispatchToTheRightParser) {
  // The torus/t3d/cluster trio all start differently today, but their
  // specs are the ones a shadowing bug would mis-route (t3d512 parsed as
  // a torus, cluster8x4 as something 2-D).  Pin the exact machines.
  const MachineConfig t3d512 = from_name("t3d512");
  EXPECT_EQ(t3d512.p, 512);
  EXPECT_NE(t3d512.name.find("t3d"), std::string::npos) << t3d512.name;
  EXPECT_EQ(t3d512.topology->name(), "torus3d 8x8x8")
      << "t3d lives on the dedicated 512-node 3-D torus";

  const MachineConfig torus = from_name("torus4x4x4x4");
  EXPECT_EQ(torus.p, 256);
  EXPECT_EQ(torus.topology->name(), "torus 4x4x4x4");

  const MachineConfig cluster = from_name("cluster8x4");
  EXPECT_EQ(cluster.p, 32);
  EXPECT_EQ(cluster.cores_per_node, 4);
  EXPECT_EQ(cluster.topology->name(), "cluster 8x4");
}

TEST(Registry, MalformedParametersNameTheField) {
  EXPECT_NE(what_of("paragon8").find("want paragonRxC"), std::string::npos);
  EXPECT_NE(what_of("torus4xq").find("torus dimensions"), std::string::npos);
  EXPECT_NE(what_of("cluster8").find("want clusterNxM"), std::string::npos);
  EXPECT_NE(what_of("t3d64:x").find("scatter seed"), std::string::npos);
  EXPECT_NE(what_of("hypercube").find("dimension count"), std::string::npos);
  // 46341^2 overflows int: counted in 64 bits, capped like torus/cluster.
  EXPECT_NE(what_of("paragon46341x46341").find("'paragon46341x46341' is too"),
            std::string::npos);
  EXPECT_NE(what_of("paragon2049x2048").find("too large"), std::string::npos);
  EXPECT_THROW(net::Mesh2D(46341, 46341), CheckError);
}

TEST(TorusMachine, ShapeAndConstants) {
  const MachineConfig m = from_name("torus4x4x4x4");
  EXPECT_EQ(m.p, 256);
  EXPECT_EQ(m.rows * m.cols, 256);
  EXPECT_LE(m.rows, m.cols);
  EXPECT_EQ(m.topology->name(), "torus 4x4x4x4");
  EXPECT_EQ(m.topology->node_count(), 256);
  EXPECT_EQ(m.cores_per_node, 0) << "flat machine";
  // Dedicated machine: identity placement, T3D-class wire.
  for (Rank r = 0; r < m.p; r += 37) EXPECT_EQ(m.mapping.node_of(r), r);
  EXPECT_GT(m.net.bytes_per_us, paragon(8, 8).net.bytes_per_us);
  // The registry and the factory agree.
  const MachineConfig direct = torus({4, 4, 4, 4});
  EXPECT_EQ(direct.name, m.name);
  EXPECT_EQ(direct.p, m.p);
}

TEST(ClusterMachine, TwoTierShape) {
  const MachineConfig m = from_name("cluster8x4");
  EXPECT_EQ(m.p, 32);
  EXPECT_EQ(m.rows, 8) << "one logical row per node";
  EXPECT_EQ(m.cols, 4);
  EXPECT_EQ(m.cores_per_node, 4);
  EXPECT_GT(m.inter_node_bw_scale, 0.0);
  EXPECT_LT(m.inter_node_bw_scale, 1.0) << "inter-node tier must be slower";
  EXPECT_EQ(m.topology->name(), "cluster 8x4");
  const auto* cluster = dynamic_cast<const net::Cluster*>(m.topology.get());
  ASSERT_NE(cluster, nullptr);
  EXPECT_DOUBLE_EQ(cluster->mesh_bw_scale(), m.inter_node_bw_scale);
}

}  // namespace
}  // namespace spb::machine
