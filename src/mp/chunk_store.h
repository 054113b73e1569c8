// The chunk storage behind mp::Payload: inline for small payloads, a shared
// copy-on-write block for large ones.
//
// Combining broadcasts grow a rank's payload to s chunks, and every later
// send carries it: the halving executor snapshots it once per iteration,
// Comm::send takes it by value, and a pipelined broadcast copies it once
// per child.  A deep copy per hop made the chunk list the simulator's
// largest heap traffic, so copies share instead:
//
//  * up to kInline chunks live in the store itself (most messages of the
//    halving algorithms carry a handful); copying them is a memcpy;
//  * larger lists live in one heap block behind an atomic reference count
//    (a header just before the chunks, reached from the data pointer, so
//    the store stays four words plus the inline buffer).  Copy
//    construction takes a share: O(1), no allocation;
//  * a store writes in place only into storage it owns alone
//    (writable_capacity() > 0).  Payload::merge checks that once per merge
//    and otherwise writes the result straight into a new block (a
//    detach), leaving every other holder of the old block untouched;
//  * copy assignment into a block the store owns alone that has room
//    reuses it (a memcpy, like std::vector), so an accumulator that is
//    reassigned and re-merged settles into one buffer; otherwise it takes
//    a share of the source.
//
// Thread safety is that of std::shared_ptr: one store is not safe to use
// from two threads at once, but stores sharing a block may be copied,
// destroyed and detached concurrently (the sharded engine hands payloads
// across its drain workers).  The count is incremented relaxed and
// released acquire-release; a store that sees a count of one (acquire)
// owns the block outright and may write it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "common/check.h"
#include "common/types.h"

namespace spb::mp {

/// One source's original message.
struct Chunk {
  Rank source = kNoRank;
  Bytes bytes = 0;
  bool operator==(const Chunk&) const = default;
};

class ChunkStore {
 public:
  /// Chunks kept inside the store before spilling to a heap block.
  static constexpr std::size_t kInline = 4;

  ChunkStore() = default;

  ChunkStore(const ChunkStore& other) { share_or_copy(other); }

  ChunkStore(ChunkStore&& other) noexcept { steal(other); }

  ChunkStore& operator=(const ChunkStore& other) {
    if (this == &other) return *this;
    if (other.size_ <= writable_capacity()) {
      copy_from(other);  // room in storage we own alone: reuse it
    } else {
      release();
      share_or_copy(other);
    }
    return *this;
  }

  ChunkStore& operator=(ChunkStore&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~ChunkStore() { release(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  const Chunk* data() const { return data_; }
  const Chunk* begin() const { return data_; }
  const Chunk* end() const { return data_ + size_; }
  const Chunk& operator[](std::size_t i) const { return data_[i]; }

  /// True iff the chunks live in the inline buffer.
  bool inline_storage() const { return data_ == inline_buf(); }

  /// True iff the chunks live in a heap block another store also holds.
  bool shared() const {
    return !inline_storage() &&
           header()->refs.load(std::memory_order_acquire) != 1;
  }

  /// Capacity this store may write in place: capacity() when it owns its
  /// storage alone, 0 when the block is shared.  Writers check it once and
  /// then use data() for the in-place path.
  std::size_t writable_capacity() const { return shared() ? 0 : cap_; }

  /// Writable chunks.  Precondition: writable_capacity() > 0 (inline, or a
  /// block this store owns alone) — a write into a shared block would show
  /// through every copy.
  Chunk* data() { return data_; }

  /// Drops the contents.  A shared block is let go (the store goes back to
  /// its empty inline buffer); storage owned alone keeps its capacity.
  void clear() {
    if (shared()) release();
    size_ = 0;
  }

  /// Makes the storage writable with room for at least `n` chunks,
  /// preserving the contents: a shared block is detached, a full one grown
  /// (geometrically, so repeated merges amortize).
  void reserve(std::size_t n) {
    if (n <= writable_capacity()) return;
    ChunkStore grown = with_capacity(std::max(n, std::size_t{size_}));
    std::memcpy(static_cast<void*>(grown.data_), data_, size_ * sizeof(Chunk));
    grown.size_ = size_;
    *this = std::move(grown);
  }

  /// Sets the size to `n` (n <= capacity()); the caller fills new slots.
  /// Used by merges that know their final size up front.
  void resize_within_capacity(std::size_t n) {
    SPB_CHECK_MSG(n <= cap_,
                  "resize_within_capacity(" << n << ") beyond " << cap_);
    size_ = static_cast<std::uint32_t>(n);
  }

  void push_back(const Chunk& c) {
    reserve(size_ + std::size_t{1});
    data_[size_++] = c;
  }

  /// An empty, writable store with room for at least `n` chunks: inline
  /// up to kInline, else a new block of kInline * 2^k chunks.
  static ChunkStore with_capacity(std::size_t n) {
    ChunkStore s;
    if (n <= kInline) return s;
    std::size_t cap = kInline;
    while (cap < n) cap *= 2;
    void* raw = ::operator new(sizeof(Header) + cap * sizeof(Chunk));
    Header* h = ::new (raw) Header{};
    s.data_ = reinterpret_cast<Chunk*>(h + 1);
    s.cap_ = static_cast<std::uint32_t>(cap);
    return s;
  }

  bool operator==(const ChunkStore& other) const {
    return size_ == other.size_ &&
           (data_ == other.data_ || std::equal(begin(), end(), other.begin()));
  }

 private:
  /// Heap block header, immediately before the chunks.  Its size keeps the
  /// chunks aligned.
  struct Header {
    std::atomic<std::size_t> refs{1};
  };
  static_assert(sizeof(Header) % alignof(Chunk) == 0);

  Header* header() const {
    return reinterpret_cast<Header*>(reinterpret_cast<unsigned char*>(data_) -
                                     sizeof(Header));
  }

  Chunk* inline_buf() { return reinterpret_cast<Chunk*>(inline_storage_); }
  const Chunk* inline_buf() const {
    return reinterpret_cast<const Chunk*>(inline_storage_);
  }

  /// Lets go of a heap block (freeing it with the last share) and returns
  /// to the empty inline buffer.
  void release() {
    if (!inline_storage()) {
      Header* h = header();
      // A count of one means no other store can reach the block, so the
      // decrement can be skipped; acquire orders the other holders' reads
      // before the free.
      if (h->refs.load(std::memory_order_acquire) == 1 ||
          h->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        h->~Header();
        ::operator delete(h);
      }
    }
    data_ = inline_buf();
    cap_ = kInline;
    size_ = 0;
  }

  /// Copies `other` into this empty inline store: inline chunks by value,
  /// a heap block by taking a share.
  void share_or_copy(const ChunkStore& other) {
    if (other.inline_storage()) {
      copy_from(other);
      return;
    }
    other.header()->refs.fetch_add(1, std::memory_order_relaxed);
    data_ = other.data_;
    cap_ = other.cap_;
    size_ = other.size_;
  }

  /// Copies other's chunks into writable storage with room for them.
  void copy_from(const ChunkStore& other) {
    std::memcpy(static_cast<void*>(data_), other.data_,
                other.size_ * sizeof(Chunk));
    size_ = other.size_;
  }

  void steal(ChunkStore& other) noexcept {
    if (other.inline_storage()) {
      std::memcpy(static_cast<void*>(inline_buf()), other.data_,
                  other.size_ * sizeof(Chunk));
      size_ = other.size_;
    } else {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.inline_buf();
      other.cap_ = kInline;
    }
    other.size_ = 0;
  }

  Chunk* data_ = inline_buf();
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
  alignas(Chunk) unsigned char inline_storage_[kInline * sizeof(Chunk)];
};

}  // namespace spb::mp
