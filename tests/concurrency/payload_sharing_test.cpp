// Thread safety of shared payload storage (mp/chunk_store.h).
//
// Payload copies share one reference-counted block, and a payload has no
// thread affinity, so here copies of one payload are taken, read and
// dropped on several threads at once while another thread detaches its
// own copy by merging into it.  Under TSan this is the race
// check for the count and for the detach; on any build it checks that no
// thread ever sees the shared chunks change.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "mp/payload.h"

namespace spb::mp {
namespace {

TEST(ConcurrentPayload, SharesCopyAndDropWhileAnotherThreadDetaches) {
  constexpr int kChunks = 256;
  constexpr int kReaders = 3;
  constexpr int kRounds = 4000;
  std::vector<Chunk> chunks;
  Bytes want_total = 0;
  for (int i = 0; i < kChunks; ++i) {
    chunks.push_back({2 * i, static_cast<Bytes>(64 + i)});
    want_total += static_cast<Bytes>(64 + i);
  }
  Payload original = Payload::of(chunks);
  const Payload odd = Payload::of({{1, 8}, {3, 8}});

  // Readers and the detacher start together, so on a multi-core host the
  // count really is updated from several cores at once.
  std::atomic<int> ready{0};
  const auto start_together = [&] {
    ready.fetch_add(1);
    while (ready.load() < kReaders + 1) std::this_thread::yield();
  };
  std::atomic<int> bad_reads{0};
  std::atomic<int> bad_merges{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      start_together();
      for (int r = 0; r < kRounds; ++r) {
        const Payload share = original;  // one more holder of the block
        Payload again = share;           // and another
        Bytes sum = 0;
        for (const Chunk& c : again.chunks()) sum += c.bytes;
        if (again.chunks().data() != original.chunks().data() ||
            sum != want_total)
          bad_reads.fetch_add(1);
        again.clear();  // drops a share without writing the block
      }
    });
  }
  threads.emplace_back([&] {
    start_together();
    for (int r = 0; r < kRounds; ++r) {
      Payload mine = original;
      mine.merge(odd);  // detach: the result goes to a new block
      if (mine.chunk_count() != kChunks + 2 ||
          mine.chunks().data() == original.chunks().data() ||
          mine.total_bytes() != want_total + 16)
        bad_merges.fetch_add(1);
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(bad_merges.load(), 0);
  ASSERT_EQ(original.chunk_count(), static_cast<std::size_t>(kChunks));
  EXPECT_EQ(original, Payload::of(chunks));
  // Every other share is gone again: the block is the original's alone,
  // so clear() keeps it (a shared block would be let go).
  original.clear();
  EXPECT_EQ(original.chunk_capacity(), static_cast<std::size_t>(kChunks));
}

}  // namespace
}  // namespace spb::mp
