// Symbolic message payloads.
//
// A broadcast message is represented as a set of chunks, each "the original
// message of source rank s, b bytes long".  Transfer times depend only on
// byte counts, so carrying real buffers would add memory traffic (up to
// p * s * L ~ 1 GB at the largest experiment sizes) without changing any
// simulated number.  Chunk algebra gives us exact correctness checking
// instead: after a run, every rank must hold precisely one chunk per source
// with the right size.
//
// Payloads keep their chunks sorted by source rank and reject duplicate
// sources on merge with a CheckError — a duplicate means an algorithm sent
// the same source's data to the same rank twice, which the paper's
// combining model never does.
//
// Storage is an mp::ChunkStore (mp/chunk_store.h): up to four chunks
// inline, larger payloads in one reference-counted heap block.  Copying a
// payload is O(1) whatever its size — the halving executor's per-iteration
// snapshot, the by-value Comm::send and the pipelined broadcast's
// per-child copy all share one block — and the first write to a shared
// block detaches it: merge() writes its result straight into a new block,
// so a payload never changes under a copy of it.  Merges into storage the
// payload owns alone run in place and reuse its capacity.  The total byte
// count is cached: wire_bytes() is called once per send, which made the
// O(chunks) sum a measurable cost in large sweeps.
//
// Thread safety: a Payload is a value; distinct Payload objects may be
// used from different threads even when they share a block (the count is
// atomic), one object from two threads at once may not.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "mp/chunk_store.h"

namespace spb::mp {

class Payload {
 public:
  /// Inline chunk capacity: payloads at or below this size never touch the
  /// heap.
  static constexpr std::size_t kInlineChunks = ChunkStore::kInline;

  Payload() = default;

  /// The initial payload of a source rank: one chunk of `bytes` bytes.
  static Payload original(Rank source, Bytes bytes);

  /// Builds from arbitrary chunks (sorted and validated).
  static Payload of(std::vector<Chunk> chunks);

  bool empty() const { return chunks_.empty(); }
  std::size_t chunk_count() const { return chunks_.size(); }
  std::span<const Chunk> chunks() const {
    return {chunks_.data(), chunks_.size()};
  }

  /// Current chunk storage capacity (tests assert that merges reuse it).
  std::size_t chunk_capacity() const { return chunks_.capacity(); }

  /// Sum of chunk sizes (cached; O(1)).
  Bytes total_bytes() const { return total_bytes_; }

  /// True iff a chunk from `source` is present.
  bool has_source(Rank source) const;

  /// Merges `other` into this payload, in place.  The chunk sets must be
  /// disjoint — receiving the same source twice indicates an algorithm bug.
  void merge(const Payload& other);

  /// Like merge() but silently keeps one copy of duplicated sources
  /// (duplicate sizes must agree).  PersAlltoAll-style algorithms that
  /// deliberately send originals redundantly use this.
  void merge_dedup(const Payload& other);

  /// Removes all chunks (used when a rank forwards its data away during
  /// repositioning).  A shared block is let go, never written.
  void clear() {
    chunks_.clear();
    total_bytes_ = 0;
  }

  bool operator==(const Payload&) const = default;

  /// "{0:4096, 7:4096}" — diagnostics.
  std::string to_string() const;

 private:
  void merge_impl(const Payload& other, bool allow_dup);
  void undo_partial_merge(const Chunk* b, std::size_t n, std::size_t m,
                          std::size_t j, std::size_t k);

  ChunkStore chunks_;  // sorted by source, unique
  Bytes total_bytes_ = 0;
};

// Payloads travel by value through every send, awaiter and mailbox slot;
// the sharing header sits in the heap block, not here.
static_assert(sizeof(Payload) <= 88, "mp::Payload grew");

}  // namespace spb::mp
