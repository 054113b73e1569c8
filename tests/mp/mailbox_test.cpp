#include "mp/mailbox.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

namespace spb::mp {
namespace {

// The mailbox holds in-flight pool slots; each test names its messages by
// slot number.

TEST(Mailbox, TakeBySourceInArrivalOrder) {
  Mailbox box;
  box.park(10, 3, 0);
  box.park(20, 5, 0);
  box.park(30, 3, 0);
  EXPECT_EQ(box.take(3, kAnyTag), std::optional<std::uint32_t>(10));  // earliest from 3
  EXPECT_EQ(box.take(3, kAnyTag), std::optional<std::uint32_t>(30));
  EXPECT_EQ(box.take(3, kAnyTag), std::nullopt);
  EXPECT_EQ(box.take(5, kAnyTag), std::optional<std::uint32_t>(20));
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, AnySourceTakesEarliestOverall) {
  Mailbox box;
  box.park(1, 9, 0);
  box.park(2, 2, 0);
  EXPECT_EQ(box.take(kAnySource, kAnyTag), std::optional<std::uint32_t>(1));
  EXPECT_EQ(box.take(kAnySource, kAnyTag), std::optional<std::uint32_t>(2));
}

TEST(Mailbox, TagFiltering) {
  Mailbox box;
  box.park(11, 1, tags::kExchange);
  box.park(22, 1, tags::kData);
  // A data-tag receive must skip the exchange message even though it
  // arrived first.
  EXPECT_EQ(box.take(kAnySource, tags::kData),
            std::optional<std::uint32_t>(22));
  EXPECT_EQ(box.take(kAnySource, tags::kData), std::nullopt);
  EXPECT_EQ(box.take(1, tags::kExchange), std::optional<std::uint32_t>(11));
}

TEST(Mailbox, MissLeavesBufferIntact) {
  Mailbox box;
  box.park(7, 4, 0);
  EXPECT_EQ(box.take(5, kAnyTag), std::nullopt);
  EXPECT_EQ(box.size(), 1u);
  EXPECT_EQ(box.take(4, kAnyTag), std::optional<std::uint32_t>(7));
}

TEST(Mailbox, FifoPerChannelAcrossInterleavedTakes) {
  // Three (src, tag) channels interleaved over many arrivals, drained by
  // a mix of exact, any-source and any-tag receives that leave the
  // mailbox non-empty throughout: every channel must come out in arrival
  // order, and the size must track the parked count.
  Mailbox box;
  struct Arrival {
    Rank src;
    int tag;
  };
  const Arrival channels[] = {{1, tags::kData}, {2, tags::kData},
                              {1, tags::kExchange}};
  std::vector<std::vector<std::uint32_t>> sent(3);
  std::vector<std::vector<std::uint32_t>> got(3);
  std::uint32_t slot = 0;
  std::size_t parked = 0;
  const auto channel_of = [&](std::uint32_t s) {
    for (std::size_t c = 0; c < 3; ++c)
      for (const std::uint32_t x : sent[c])
        if (x == s) return c;
    ADD_FAILURE() << "unknown slot " << s;
    return std::size_t{0};
  };
  for (int round = 0; round < 200; ++round) {
    const std::size_t c = static_cast<std::size_t>(round * 7 % 3);
    box.park(slot, channels[c].src, channels[c].tag);
    sent[c].push_back(slot++);
    ++parked;
    if (round % 3 != 2) continue;
    // Take one by each kind of filter in turn.
    std::optional<std::uint32_t> s;
    switch (round % 4) {
      case 0: s = box.take(2, tags::kData); break;
      case 1: s = box.take(kAnySource, tags::kExchange); break;
      case 2: s = box.take(1, kAnyTag); break;
      default: s = box.take(kAnySource, kAnyTag); break;
    }
    if (s) {
      got[channel_of(*s)].push_back(*s);
      --parked;
    }
    ASSERT_EQ(box.size(), parked);
  }
  while (const std::optional<std::uint32_t> s = box.take(kAnySource, kAnyTag)) {
    got[channel_of(*s)].push_back(*s);
    --parked;
  }
  EXPECT_EQ(parked, 0u);
  EXPECT_TRUE(box.empty());
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(got[c], sent[c]) << c;
}

TEST(Mailbox, SequenceReleasesInOrderAndSuppressesDuplicates) {
  Mailbox box;
  bool dup = false;
  // seq 1 and 2 arrive early: their slots are held, nothing released.
  EXPECT_TRUE(box.sequence(4, 2, 102, dup).empty());
  EXPECT_FALSE(dup);
  EXPECT_TRUE(box.sequence(4, 1, 101, dup).empty());
  EXPECT_FALSE(dup);
  // A second copy of a held message is a duplicate.
  EXPECT_TRUE(box.sequence(4, 2, 202, dup).empty());
  EXPECT_TRUE(dup);
  // Another source's stream is independent.
  EXPECT_EQ(box.sequence(6, 0, 600, dup),
            (std::vector<std::uint32_t>{600}));
  EXPECT_FALSE(dup);
  // seq 0 fills the gap: it and the held slots come out in seq order.
  EXPECT_EQ(box.sequence(4, 0, 100, dup),
            (std::vector<std::uint32_t>{100, 101, 102}));
  EXPECT_FALSE(dup);
  // Replays of released sequence numbers are duplicates.
  EXPECT_TRUE(box.sequence(4, 0, 300, dup).empty());
  EXPECT_TRUE(dup);
  EXPECT_TRUE(box.sequence(4, 2, 302, dup).empty());
  EXPECT_TRUE(dup);
  EXPECT_EQ(box.sequence(4, 3, 103, dup),
            (std::vector<std::uint32_t>{103}));
  EXPECT_FALSE(dup);
  // Sequencing never parks: the inbox is untouched.
  EXPECT_TRUE(box.empty());
}

}  // namespace
}  // namespace spb::mp
