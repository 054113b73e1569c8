// Canonical problem signatures: the cache key must identify a problem by
// what the planner prices (machine, source multiset, distribution label,
// length bucket, fault context) and by nothing else — not source order,
// not the exact byte length inside a bucket.
#include "plan/signature.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/check.h"
#include "dist/signature.h"
#include "machine/config.h"

namespace spb::plan {
namespace {

TEST(LengthBucket, PowersOfTwoAndRepresentatives) {
  EXPECT_EQ(length_bucket(1), 0);
  EXPECT_EQ(length_bucket(2), 1);
  EXPECT_EQ(length_bucket(3), 1);
  EXPECT_EQ(length_bucket(4), 2);
  EXPECT_EQ(length_bucket(1023), 9);
  EXPECT_EQ(length_bucket(1024), 10);
  EXPECT_THROW(length_bucket(0), CheckError);

  // The representative is the bucket's geometric midpoint 3 * 2^(b-1),
  // inside [2^b, 2^(b+1)) for every b >= 1.
  EXPECT_EQ(representative_bytes(0), 1);
  for (int b = 1; b <= 20; ++b) {
    const Bytes rep = representative_bytes(b);
    EXPECT_EQ(length_bucket(rep), b) << "bucket " << b;
    EXPECT_EQ(rep, static_cast<Bytes>(3) << (b - 1));
  }
}

TEST(SourceMultisetHash, OrderIndependent) {
  const std::vector<Rank> sorted = {1, 5, 9, 22, 63};
  std::vector<Rank> shuffled = {63, 9, 1, 22, 5};
  EXPECT_EQ(dist::source_multiset_hash(sorted),
            dist::source_multiset_hash(shuffled));
  // Different multiset, different hash.
  EXPECT_NE(dist::source_multiset_hash(std::vector<Rank>{1, 5, 9, 22, 62}),
            dist::source_multiset_hash(sorted));
  EXPECT_NE(dist::source_multiset_hash(std::vector<Rank>{1, 5, 9, 22}),
            dist::source_multiset_hash(sorted));
}

TEST(SourceMultisetHash, ValuesArePinned) {
  // Sorted lists are hashed in place and any other order through a sorted
  // copy; both must keep every cached signature's value.  The constants
  // are what the copy-and-sort implementation computed.
  const auto hash = [](std::vector<Rank> ranks) {
    return dist::source_multiset_hash(ranks);
  };
  EXPECT_EQ(hash({1, 5, 9, 22, 63}), 0x400a58f6e0f2e880ULL);
  EXPECT_EQ(hash({63, 9, 1, 22, 5}), 0x400a58f6e0f2e880ULL);
  EXPECT_EQ(hash({3, 3, 7, 7, 7, 12}), 0xc3d6df760306a21aULL);
  EXPECT_EQ(hash({12, 7, 3, 7, 3, 7}), 0xc3d6df760306a21aULL);
  EXPECT_EQ(hash({}), 0x1ca4e036692c881bULL);
  EXPECT_EQ(hash({0}), 0x755e219294667852ULL);
  EXPECT_EQ(hash({4095}), 0x51408709c8d66ba2ULL);
}

TEST(Signature, SameMultisetSameKey) {
  const machine::MachineConfig m = machine::paragon(8, 8);
  std::vector<Rank> sources = {3, 17, 40, 41, 63};
  const Signature a = make_signature(m, sources, 6144, "B", "");

  std::mt19937 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    std::shuffle(sources.begin(), sources.end(), rng);
    const Signature b = make_signature(m, sources, 6144, "B", "");
    EXPECT_EQ(a.key(), b.key()) << "trial " << trial;
    EXPECT_TRUE(a == b);
  }
}

TEST(Signature, SameBucketSameKeyAcrossExactLengths) {
  const machine::MachineConfig m = machine::paragon(8, 8);
  const std::vector<Rank> sources = {0, 9, 18, 27};
  // 4096..8191 all land in bucket 12.
  const Signature lo = make_signature(m, sources, 4096, "R", "");
  const Signature mid = make_signature(m, sources, 6144, "R", "");
  const Signature hi = make_signature(m, sources, 8191, "R", "");
  EXPECT_EQ(lo.key(), mid.key());
  EXPECT_EQ(mid.key(), hi.key());
  // 8192 crosses into bucket 13.
  EXPECT_NE(mid.key(), make_signature(m, sources, 8192, "R", "").key());
}

TEST(Signature, MachineChangeChangesKey) {
  const std::vector<Rank> sources = {0, 9, 18, 27};
  const Signature a =
      make_signature(machine::paragon(8, 8), sources, 6144, "R", "");
  const Signature b =
      make_signature(machine::paragon(16, 16), sources, 6144, "R", "");
  const Signature c =
      make_signature(machine::t3d(64), sources, 6144, "R", "");
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_NE(b.key(), c.key());
}

TEST(Signature, TorusDimensionsChangeKeyAtEqualNodeCount) {
  // Same p, same near-square rows x cols grid — only the topology shape
  // (captured via the topology name) separates these, so the hash must
  // mix it in.
  const std::vector<Rank> sources = {0, 9, 18, 27};
  const Signature a =
      make_signature(machine::torus({4, 4, 4}), sources, 6144, "R", "");
  const Signature b =
      make_signature(machine::torus({2, 2, 16}), sources, 6144, "R", "");
  const Signature c =
      make_signature(machine::torus({8, 8}), sources, 6144, "R", "");
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_NE(b.key(), c.key());
}

TEST(Signature, ClusterTieringChangesKey) {
  // cluster8x4 and cluster4x8 have the same p = 32; the cores_per_node
  // tier split must separate them, and a cluster never collides with a
  // flat 32-processor machine.
  const std::vector<Rank> sources = {0, 9, 18, 27};
  const Signature a =
      make_signature(machine::cluster(8, 4), sources, 6144, "R", "");
  const Signature b =
      make_signature(machine::cluster(4, 8), sources, 6144, "R", "");
  const Signature flat =
      make_signature(machine::paragon(4, 8), sources, 6144, "R", "");
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), flat.key());
  EXPECT_NE(b.key(), flat.key());
}

TEST(Signature, FaultContextChangesKey) {
  const machine::MachineConfig m = machine::paragon(8, 8);
  const std::vector<Rank> sources = {0, 9, 18, 27};
  const Signature clean = make_signature(m, sources, 6144, "R", "");
  const Signature faulty =
      make_signature(m, sources, 6144, "R", "drop=0.1");
  EXPECT_NE(clean.key(), faulty.key());
}

TEST(Signature, DistributionLabelChangesKey) {
  const machine::MachineConfig m = machine::paragon(8, 8);
  const std::vector<Rank> sources = {0, 9, 18, 27};
  EXPECT_NE(make_signature(m, sources, 6144, "R", "").key(),
            make_signature(m, sources, 6144, "C", "").key());
}

}  // namespace
}  // namespace spb::plan
