#include "mp/payload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "alloc_count.h"
#include "common/check.h"

namespace spb::mp {
namespace {

TEST(Payload, OriginalHasOneChunk) {
  const Payload p = Payload::original(7, 4096);
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.chunk_count(), 1u);
  EXPECT_EQ(p.total_bytes(), 4096u);
  EXPECT_TRUE(p.has_source(7));
  EXPECT_FALSE(p.has_source(6));
}

TEST(Payload, OriginalRejectsBadArguments) {
  EXPECT_THROW(Payload::original(-1, 10), CheckError);
  EXPECT_THROW(Payload::original(3, 0), CheckError);
}

TEST(Payload, OfSortsChunks) {
  const Payload p = Payload::of({{5, 10}, {2, 20}, {9, 30}});
  ASSERT_EQ(p.chunk_count(), 3u);
  EXPECT_EQ(p.chunks()[0].source, 2);
  EXPECT_EQ(p.chunks()[1].source, 5);
  EXPECT_EQ(p.chunks()[2].source, 9);
  EXPECT_EQ(p.total_bytes(), 60u);
}

TEST(Payload, OfRejectsDuplicateSources) {
  EXPECT_THROW(Payload::of({{1, 10}, {1, 10}}), CheckError);
}

TEST(Payload, MergeDisjointSets) {
  Payload a = Payload::of({{0, 10}, {4, 10}});
  const Payload b = Payload::of({{2, 10}, {6, 10}});
  a.merge(b);
  ASSERT_EQ(a.chunk_count(), 4u);
  EXPECT_EQ(a.chunks()[0].source, 0);
  EXPECT_EQ(a.chunks()[1].source, 2);
  EXPECT_EQ(a.chunks()[2].source, 4);
  EXPECT_EQ(a.chunks()[3].source, 6);
}

TEST(Payload, MergeRejectsOverlap) {
  Payload a = Payload::of({{0, 10}, {4, 10}});
  const Payload b = Payload::of({{4, 10}});
  EXPECT_THROW(a.merge(b), CheckError);
}

TEST(Payload, MergeDedupCollapsesDuplicates) {
  Payload a = Payload::of({{0, 10}, {4, 10}});
  const Payload b = Payload::of({{4, 10}, {5, 10}});
  a.merge_dedup(b);
  ASSERT_EQ(a.chunk_count(), 3u);
  EXPECT_EQ(a.total_bytes(), 30u);
}

TEST(Payload, MergeDedupRejectsConflictingSizes) {
  Payload a = Payload::of({{4, 10}});
  const Payload b = Payload::of({{4, 11}});
  EXPECT_THROW(a.merge_dedup(b), CheckError);
}

TEST(Payload, MergeWithEmpty) {
  Payload a = Payload::original(3, 100);
  a.merge(Payload{});
  EXPECT_EQ(a.chunk_count(), 1u);
  Payload empty;
  empty.merge(a);
  EXPECT_EQ(empty, a);
}

TEST(Payload, EqualityIsStructural) {
  const Payload a = Payload::of({{1, 10}, {2, 20}});
  const Payload b = Payload::of({{2, 20}, {1, 10}});
  EXPECT_EQ(a, b);
  const Payload c = Payload::of({{1, 10}, {2, 21}});
  EXPECT_NE(a, c);
}

TEST(Payload, ClearEmpties) {
  Payload a = Payload::original(1, 5);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.total_bytes(), 0u);
}

TEST(Payload, ToStringFormat) {
  EXPECT_EQ(Payload{}.to_string(), "{}");
  EXPECT_EQ(Payload::of({{0, 4096}, {7, 512}}).to_string(),
            "{0:4096, 7:512}");
}

// ---- in-place merge: capacity reuse and chunk algebra ----

TEST(Payload, SmallMergesStayInline) {
  Payload a = Payload::of({{0, 10}, {2, 10}});
  a.merge(Payload::of({{1, 10}, {3, 10}}));
  EXPECT_EQ(a.chunk_count(), 4u);
  EXPECT_EQ(a.chunk_capacity(), Payload::kInlineChunks);
}

TEST(Payload, MergeWithinCapacityDoesNotReallocate) {
  std::vector<Chunk> wide;
  for (int i = 0; i < 40; ++i) wide.push_back({2 * i, 8});
  std::vector<Chunk> even(wide.begin(), wide.begin() + 32);
  Payload a = Payload::of(wide);  // settles capacity >= 40
  const Payload small = Payload::of(even);
  a = small;  // copy-assignment reuses the settled capacity
  const std::size_t cap = a.chunk_capacity();
  ASSERT_GE(cap, 33u);  // room for one more without growing
  a.merge(Payload::of({{1, 8}}));
  EXPECT_EQ(a.chunk_count(), 33u);
  EXPECT_EQ(a.chunk_capacity(), cap);
}

TEST(Payload, RepeatedAssignMergeSettlesCapacity) {
  // The benches' steady-state shape: the accumulator is reassigned and
  // re-merged every iteration; after the first, capacity must not move.
  std::vector<Chunk> even;
  std::vector<Chunk> odd;
  for (int i = 0; i < 64; ++i) {
    even.push_back({2 * i, 8});
    odd.push_back({2 * i + 1, 8});
  }
  const Payload a = Payload::of(even);
  const Payload b = Payload::of(odd);
  Payload m = a;
  m.merge(b);
  const std::size_t cap = m.chunk_capacity();
  for (int round = 0; round < 4; ++round) {
    m = a;
    m.merge(b);
    EXPECT_EQ(m.chunk_capacity(), cap);
    EXPECT_EQ(m.chunk_count(), 128u);
  }
}

TEST(Payload, MergeMatchesReferenceAlgebraAcrossShapes) {
  // In-place fast paths (append, prepend, in-capacity interleave, growth)
  // must all produce the same sorted union a std::merge would.
  const auto reference = [](std::vector<Chunk> x, std::vector<Chunk> y) {
    for (const Chunk& c : y) x.push_back(c);
    std::sort(x.begin(), x.end(),
              [](const Chunk& l, const Chunk& r) { return l.source < r.source; });
    return x;
  };
  struct Case {
    std::vector<Chunk> a;
    std::vector<Chunk> b;
  };
  std::vector<Case> cases;
  cases.push_back({{{0, 1}, {1, 2}, {2, 3}}, {{10, 4}, {11, 5}}});  // append
  cases.push_back({{{10, 4}, {11, 5}}, {{0, 1}, {1, 2}}});          // prepend
  cases.push_back({{{0, 1}, {4, 2}, {8, 3}}, {{2, 4}, {6, 5}}});    // weave
  {
    Case big;  // growth path: n + m far beyond inline capacity
    for (int i = 0; i < 40; ++i) big.a.push_back({3 * i, 8});
    for (int i = 0; i < 40; ++i) big.b.push_back({3 * i + 1, 8});
    cases.push_back(big);
  }
  for (const Case& c : cases) {
    Payload p = Payload::of(c.a);
    p.merge(Payload::of(c.b));
    const std::vector<Chunk> want = reference(c.a, c.b);
    ASSERT_EQ(p.chunk_count(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(p.chunks()[i], want[i]);
    Bytes bytes = 0;
    for (const Chunk& ch : want) bytes += ch.bytes;
    EXPECT_EQ(p.total_bytes(), bytes);
  }
}

TEST(Payload, FailedMergeLeavesPayloadUnchanged) {
  // The duplicate is discovered only after the backward merge has already
  // overwritten part of the original prefix — the rollback must restore
  // it exactly (shape: last elements merge first, dup found late).
  const Payload orig = Payload::of({{1, 10}, {5, 10}, {6, 10}});
  Payload a = orig;
  EXPECT_THROW(a.merge(Payload::of({{1, 10}, {7, 10}})), CheckError);
  EXPECT_EQ(a, orig);

  // Dup found immediately (equal max sources).
  Payload b = orig;
  EXPECT_THROW(b.merge(Payload::of({{6, 10}})), CheckError);
  EXPECT_EQ(b, orig);

  // Growth path (result would exceed capacity) must also be atomic.
  std::vector<Chunk> many;
  for (int i = 0; i < 30; ++i) many.push_back({2 * i, 8});
  const Payload wide = Payload::of(many);
  Payload c = wide;
  std::vector<Chunk> clash;
  for (int i = 0; i < 30; ++i) clash.push_back({2 * i + 1, 8});
  clash[29] = {58, 8};  // duplicates a source in `wide`
  EXPECT_THROW(c.merge(Payload::of(clash)), CheckError);
  EXPECT_EQ(c, wide);
}

// ---- sharing: copies are O(1), writes detach ----

Payload evens(int n) {
  std::vector<Chunk> chunks;
  for (int i = 0; i < n; ++i) chunks.push_back({2 * i, 64 + Bytes(i)});
  return Payload::of(chunks);
}

/// The payload's exact bytes: its chunks and its cached total.
struct Bits {
  std::vector<Chunk> chunks;
  Bytes total = 0;
  explicit Bits(const Payload& p)
      : chunks(p.chunks().begin(), p.chunks().end()), total(p.total_bytes()) {}
};

void expect_bits(const Payload& p, const Bits& want) {
  ASSERT_EQ(p.chunk_count(), want.chunks.size());
  EXPECT_EQ(std::memcmp(p.chunks().data(), want.chunks.data(),
                        want.chunks.size() * sizeof(Chunk)),
            0);
  EXPECT_EQ(p.total_bytes(), want.total);
}

TEST(Payload, CopyOfLargePayloadSharesStorageWithoutAllocating) {
  const Payload p = evens(64);
  const std::size_t before = test::allocations_here();
  const Payload copy = p;  // NOLINT(performance-unnecessary-copy-initialization)
  Payload assigned;
  assigned = p;
  EXPECT_EQ(test::allocations_here(), before);
  EXPECT_EQ(copy.chunks().data(), p.chunks().data());
  EXPECT_EQ(assigned.chunks().data(), p.chunks().data());
  EXPECT_EQ(copy, p);
  EXPECT_EQ(assigned, p);
}

TEST(Payload, WritesToOneCopyLeaveTheOtherUnchanged) {
  // 40 chunks sit in a block of 64, so every write below would fit in
  // place: only the sharing sends it to a new block.
  std::vector<Chunk> odd;
  for (int i = 0; i < 16; ++i) odd.push_back({2 * i + 1, 8});
  const Payload interleaved = Payload::of(odd);   // general merge
  const Payload above = Payload::of({{500, 8}});  // append
  const std::vector<std::pair<const char*, std::function<void(Payload&)>>>
      writes = {
          {"merge interleaved", [&](Payload& x) { x.merge(interleaved); }},
          {"merge append", [&](Payload& x) { x.merge(above); }},
          {"merge_dedup", [](Payload& x) {
             x.merge_dedup(Payload::of({{0, 64}, {3, 8}}));  // 0 is shared
           }},
          {"clear", [](Payload& x) { x.clear(); }},
      };
  for (const auto& [name, write] : writes) {
    for (const bool write_original : {false, true}) {
      SCOPED_TRACE(std::string(name) +
                   (write_original ? " on the original" : " on the copy"));
      Payload original = evens(40);
      ASSERT_EQ(original.chunk_capacity(), 64u);
      Payload copy = original;
      const Bits want(original);
      write(write_original ? original : copy);
      expect_bits(write_original ? copy : original, want);
      EXPECT_NE(original, copy);
    }
  }
}

TEST(Payload, FailedMergeOnSharedPayloadLeavesBothCopiesUnchanged) {
  const Payload clash = Payload::of({{1, 8}, {10, 8}});  // 10 is in evens()
  for (const bool dedup_sizes : {false, true}) {
    Payload original = evens(40);
    Payload copy = original;
    const Bits want(original);
    if (dedup_sizes) {
      // Source 10 again, with a conflicting size.
      EXPECT_THROW(copy.merge_dedup(clash), CheckError);
    } else {
      EXPECT_THROW(copy.merge(clash), CheckError);
    }
    expect_bits(original, want);
    expect_bits(copy, want);
    EXPECT_EQ(copy.chunks().data(), original.chunks().data());
  }
}

}  // namespace
}  // namespace spb::mp
