// Seeded fuzz of Payload::merge / merge_dedup against a naive reference
// model (std::map<source, bytes>).  The production code merges in place
// over ChunkStore storage with a partial-merge rollback path; the reference
// is too slow for the simulator but obviously correct, so any divergence
// is a Payload bug.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "mp/payload.h"

namespace spb::mp {
namespace {

using Model = std::map<Rank, Bytes>;

Payload to_payload(const Model& m) {
  std::vector<Chunk> chunks;
  for (const auto& [source, bytes] : m) chunks.push_back({source, bytes});
  return Payload::of(std::move(chunks));
}

void expect_matches(const Payload& p, const Model& m) {
  ASSERT_EQ(p.chunk_count(), m.size());
  Bytes total = 0;
  std::size_t i = 0;
  for (const auto& [source, bytes] : m) {
    EXPECT_EQ(p.chunks()[i].source, source);
    EXPECT_EQ(p.chunks()[i].bytes, bytes);
    EXPECT_TRUE(p.has_source(source));
    total += bytes;
    ++i;
  }
  EXPECT_EQ(p.total_bytes(), total);
}

/// A random chunk set over a small source universe (so overlaps between
/// two draws are common) with occasionally-colliding sizes.
Model draw_model(Rng& rng, int max_chunks) {
  Model m;
  const int n = static_cast<int>(rng.next_in(0, max_chunks));
  for (int i = 0; i < n; ++i) {
    const Rank source = static_cast<Rank>(rng.next_in(0, 19));
    const Bytes bytes = 64u << rng.next_below(4);  // 64..512
    m[source] = bytes;
  }
  return m;
}

TEST(PayloadFuzz, MergeMatchesReferenceModel) {
  Rng rng(0x5eedf00dULL);
  int disjoint_merges = 0;
  int rejected_merges = 0;
  for (int round = 0; round < 2000; ++round) {
    const Model ma = draw_model(rng, 8);
    const Model mb = draw_model(rng, 8);
    Payload a = to_payload(ma);
    const Payload b = to_payload(mb);
    // Every other round a copy shares a's storage, so the merge (or its
    // failure) must detach and leave the copy as it was.
    const bool shared = round % 2 == 0;
    const Payload copy = shared ? a : Payload{};

    bool overlap = false;
    for (const auto& [source, bytes] : mb) overlap |= ma.contains(source);

    if (!overlap) {
      Model merged = ma;
      merged.insert(mb.begin(), mb.end());
      a.merge(b);
      expect_matches(a, merged);
      ++disjoint_merges;
    } else {
      // Overlap rejection: merge must throw and — rollback atomicity —
      // leave the destination exactly as it was, even when the overlap
      // sits after chunks that were already spliced in.
      EXPECT_THROW(a.merge(b), CheckError);
      expect_matches(a, ma);
      ++rejected_merges;
    }
    if (shared) expect_matches(copy, ma);
  }
  // The universe is small enough that both branches run thousands of
  // times; a generator change that starves one would weaken the test.
  EXPECT_GT(disjoint_merges, 200);
  EXPECT_GT(rejected_merges, 200);
}

TEST(PayloadFuzz, MergeDedupMatchesReferenceUnion) {
  Rng rng(0xba5eba11ULL);
  for (int round = 0; round < 2000; ++round) {
    const Model ma = draw_model(rng, 8);
    Model mb = draw_model(rng, 8);
    // merge_dedup requires duplicate sizes to agree; align them.
    for (auto& [source, bytes] : mb) {
      const auto it = ma.find(source);
      if (it != ma.end()) bytes = it->second;
    }
    Payload a = to_payload(ma);
    a.merge_dedup(to_payload(mb));
    Model merged = ma;
    merged.insert(mb.begin(), mb.end());  // keeps ma's copy on collision
    expect_matches(a, merged);
  }
}

TEST(PayloadFuzz, RollbackSurvivesRepeatedFailures) {
  // Hammer one destination with failing merges interleaved with good ones:
  // every failure must leave it byte-identical, every success must land,
  // and capacity reuse must never corrupt the chunk order.
  Rng rng(0xdecafbadULL);
  Model model;
  Payload p;
  for (int round = 0; round < 3000; ++round) {
    const Model add = draw_model(rng, 4);
    bool overlap = false;
    for (const auto& [source, bytes] : add) overlap |= model.contains(source);
    if (overlap) {
      EXPECT_THROW(p.merge(to_payload(add)), CheckError);
    } else {
      p.merge(to_payload(add));
      model.insert(add.begin(), add.end());
    }
    expect_matches(p, model);
    if (model.size() > 12 || rng.next_double() < 0.05) {
      p.clear();
      model.clear();
    }
  }
}

}  // namespace
}  // namespace spb::mp
