#include "mp/chunk_store.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/check.h"

namespace spb::mp {
namespace {

Chunk chunk(int i) { return {i, static_cast<Bytes>(10 * i + 1)}; }

const Chunk& at(const ChunkStore& s, int i) {
  return s[static_cast<std::size_t>(i)];
}

ChunkStore filled(int n) {
  ChunkStore s;
  for (int i = 0; i < n; ++i) s.push_back(chunk(i));
  return s;
}

TEST(ChunkStore, StartsInlineAndEmpty) {
  const ChunkStore s{};
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.capacity(), ChunkStore::kInline);
  EXPECT_TRUE(s.inline_storage());
  EXPECT_FALSE(s.shared());
}

TEST(ChunkStore, StaysInlineUpToN) {
  const ChunkStore s = filled(4);
  EXPECT_TRUE(s.inline_storage());
  EXPECT_EQ(s.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(at(s, i), chunk(i));
}

TEST(ChunkStore, SpillsToHeapPreservingContents) {
  const ChunkStore s = filled(9);
  EXPECT_FALSE(s.inline_storage());
  EXPECT_GE(s.capacity(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(at(s, i), chunk(i));
}

TEST(ChunkStore, ReserveGrowsGeometricallyAndKeepsSize) {
  ChunkStore s = filled(1);
  s.reserve(100);
  EXPECT_EQ(s.capacity(), 128u);  // kInline * 2^k
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], chunk(0));
  // reserve below current capacity is a no-op.
  const Chunk* buf = s.data();
  s.reserve(2);
  EXPECT_EQ(s.capacity(), 128u);
  EXPECT_EQ(s.data(), buf);
}

TEST(ChunkStore, CopyAssignReusesCapacity) {
  ChunkStore big = filled(64);
  const std::size_t cap = big.capacity();
  const Chunk* buf = big.data();

  const ChunkStore small = filled(2);
  big = small;
  EXPECT_EQ(big.size(), 2u);
  EXPECT_EQ(big.capacity(), cap);  // no shrink-to-fit
  EXPECT_EQ(big.data(), buf);      // same heap block, no reallocation
  EXPECT_EQ(big[0], chunk(0));
  EXPECT_EQ(big[1], chunk(1));
}

TEST(ChunkStore, MoveStealsHeapBuffer) {
  ChunkStore s = filled(32);
  const Chunk* buf = s.data();
  const ChunkStore t = std::move(s);
  EXPECT_EQ(t.data(), buf);
  EXPECT_EQ(t.size(), 32u);
  EXPECT_FALSE(t.shared());
  EXPECT_TRUE(s.empty());  // NOLINT(bugprone-use-after-move): spec'd reset
}

TEST(ChunkStore, MoveOfInlineCopies) {
  ChunkStore s = filled(1);
  const ChunkStore t = std::move(s);
  EXPECT_TRUE(t.inline_storage());
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], chunk(0));
}

TEST(ChunkStore, ResizeWithinCapacityShrinksAndRestores) {
  ChunkStore s = filled(6);
  s.resize_within_capacity(3);
  EXPECT_EQ(s.size(), 3u);
  // The trailing chunks were not destroyed (trivially copyable): growing
  // back within capacity exposes them again.
  s.resize_within_capacity(6);
  EXPECT_EQ(s[5], chunk(5));
  EXPECT_THROW(s.resize_within_capacity(s.capacity() + 1), CheckError);
}

TEST(ChunkStore, EqualityComparesContents) {
  ChunkStore a;
  ChunkStore b;
  a.push_back(chunk(1));
  b.push_back(chunk(1));
  EXPECT_EQ(a, b);
  b.push_back(chunk(2));
  EXPECT_FALSE(a == b);
}

// ---- sharing ----

TEST(ChunkStore, CopyOfHeapBlockSharesIt) {
  const ChunkStore s = filled(16);
  EXPECT_FALSE(s.shared());
  {
    const ChunkStore t = s;
    EXPECT_EQ(t.data(), s.data());
    EXPECT_TRUE(s.shared());
    EXPECT_TRUE(t.shared());
    EXPECT_EQ(t.writable_capacity(), 0u);
  }
  EXPECT_FALSE(s.shared());  // the last other share is gone
  EXPECT_EQ(s.writable_capacity(), s.capacity());
}

TEST(ChunkStore, CopyOfInlineStoreIsIndependent) {
  const ChunkStore s = filled(3);
  ChunkStore t = s;
  EXPECT_NE(t.data(), s.data());
  EXPECT_EQ(t.writable_capacity(), ChunkStore::kInline);
  t.push_back(chunk(3));
  EXPECT_EQ(s.size(), 3u);
}

TEST(ChunkStore, WritesDetachASharedBlock) {
  const ChunkStore s = filled(8);
  ChunkStore t = s;
  t.push_back(chunk(8));  // reserve() detaches before the write
  EXPECT_NE(t.data(), s.data());
  EXPECT_FALSE(s.shared());
  ASSERT_EQ(s.size(), 8u);
  ASSERT_EQ(t.size(), 9u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(at(t, i), at(s, i));

  ChunkStore u = s;
  u.clear();  // lets the share go, never writes it
  EXPECT_TRUE(u.empty());
  EXPECT_TRUE(u.inline_storage());
  EXPECT_EQ(s.size(), 8u);
  EXPECT_FALSE(s.shared());
}

TEST(ChunkStore, CopyAssignTakesAShareWhenItCannotReuse) {
  const ChunkStore s = filled(32);
  ChunkStore t = filled(8);  // a block of 8, too small for 32
  t = s;
  EXPECT_EQ(t.data(), s.data());
  ChunkStore u = s;
  ChunkStore two;
  two.push_back(chunk(7));
  two.push_back(chunk(9));
  u = two;  // a shared block is never written: u goes inline
  EXPECT_TRUE(u.inline_storage());
  EXPECT_EQ(s.size(), 32u);
  EXPECT_EQ(s[0], chunk(0));
  EXPECT_EQ(s[1], chunk(1));
}

}  // namespace
}  // namespace spb::mp
