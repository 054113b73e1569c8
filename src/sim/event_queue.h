// Time-ordered event queue.  Events with equal timestamps are dispatched in
// insertion order, which makes every simulation bit-for-bit deterministic —
// a property the tests assert and the benchmark harness relies on.
//
// Performance shape (this is the simulator's innermost loop — three events
// per simulated message, hundreds of thousands per sweep):
//  * Each queue entry is 16 bytes: the time's bit pattern and one tagged
//    word of one of three kinds — a coroutine to resume, an in-flight
//    message slot to deliver, or the slot of a parked EventFn.  The
//    runtime's per-message events (sender resume, delivery, receiver
//    resume) are the first two kinds and build no closure at all.
//  * EventFn, for everything else, stores small trivially-copyable
//    callables inline and spills larger or non-trivially-copyable ones
//    (std::function, test lambdas capturing containers) to the heap.
//  * The queue is a monotone radix heap over the entries (EventQueue
//    below, DESIGN.md §3); parked callables sit still in a slot pool.
#pragma once

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace spb::sim {

/// A move-only callable with small-buffer storage tuned for event
/// callbacks.  Trivially copyable callables up to kInlineBytes live in the
/// event itself; anything else is boxed on the heap.
class EventFn {
 public:
  /// Inline capacity: fits a coroutine handle plus a couple of words,
  /// which covers every callback the runtime schedules.
  static constexpr std::size_t kInlineBytes = 32;

  EventFn() = default;
  /*implicit*/ EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-*)

  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_v<std::decay_t<F>&> &&
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  /*implicit*/ EventFn(F&& f) {  // NOLINT(google-explicit-*)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_trivially_copyable_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
      cleanup_ = nullptr;
    } else {
      auto* boxed = new D(std::forward<F>(f));
      std::memcpy(storage_, &boxed, sizeof(boxed));
      invoke_ = [](void* p) {
        D* d;
        std::memcpy(&d, p, sizeof(d));
        (*d)();
      };
      cleanup_ = [](void* p) {
        D* d;
        std::memcpy(&d, p, sizeof(d));
        delete d;
      };
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { destroy(); }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void destroy() {
    if (cleanup_ != nullptr) cleanup_(storage_);
    invoke_ = nullptr;
    cleanup_ = nullptr;
  }

  void steal(EventFn& other) noexcept {
    invoke_ = other.invoke_;
    cleanup_ = other.cleanup_;
    // Inline callables are trivially copyable by construction; heap-backed
    // ones store a raw pointer here.  Either way a byte copy relocates.
    std::memcpy(storage_, other.storage_, kInlineBytes);
    other.invoke_ = nullptr;
    other.cleanup_ = nullptr;
  }

  using Invoke = void (*)(void*);
  using Cleanup = void (*)(void*);
  Invoke invoke_ = nullptr;
  Cleanup cleanup_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

/// Receiver of a loop's delivery entries: one function and context per
/// loop, installed once (mp::Runtime hands its in-flight messages over
/// through it), so a delivery entry carries nothing but a pool slot.
struct DeliverHook {
  void (*fn)(void* ctx, std::uint32_t slot) = nullptr;
  void* ctx = nullptr;
};

/// A popped event: its time and what to run.
struct Event {
  SimTime time = 0;
  /// The callable of a closure entry; empty for the two typed kinds.
  EventFn fn;
  /// The entry's tagged word (see EventQueue): a coroutine frame address,
  /// a message slot, or a spent EventFn slot.
  std::uint64_t word = 0;

  /// Runs the event: resumes the coroutine, hands the message slot to
  /// `deliver`, or calls fn.  The one dispatch of Simulator::step.
  void run(const DeliverHook& deliver);
};

/// Monotone radix heap keyed on the timestamp's bit pattern.  For
/// non-negative doubles unsigned bit-pattern order is numeric order, so
/// the heap compares integers.  An entry sits in bucket
/// bit_width(key ^ last), where `last` is the key of the last pop: bucket 0
/// holds the keys equal to it, bucket b the keys whose highest bit
/// differing from it is b - 1.  A pop takes bucket 0's front; once bucket 0
/// is empty it moves `last` to the lowest non-empty bucket's minimum and
/// redistributes that bucket, every entry of which lands in a lower one.
///
/// Push contract: every push, of any kind, needs t >= the time of the
/// last pop (a smaller key would be filed in the wrong bucket).  The
/// Simulator's scheduling calls already guarantee it; the pushes enforce
/// it.
///
/// Ties stay FIFO without a sequence number, across all three kinds:
/// equal keys always share a bucket, pushes append, and redistribution is
/// stable into buckets that are empty, so insertion order survives every
/// move.
class EventQueue {
 public:
  /// Low two bits of an entry's word: what the rest of the word holds.
  /// Coroutine frames come from operator new, so their addresses leave
  /// these bits clear (push_resume checks).
  static constexpr std::uint64_t kTagMask = 3;
  static constexpr std::uint64_t kFnTag = 0;       // EventFn slot << 2
  static constexpr std::uint64_t kResumeTag = 1;   // frame address | 1
  static constexpr std::uint64_t kDeliverTag = 2;  // message slot << 2 | 2

  /// Enqueues fn at absolute time t (t >= the time of the last pop).
  void push(SimTime t, EventFn fn);
  /// Enqueues a resume of h at t — a typed entry, no closure.
  void push_resume(SimTime t, std::coroutine_handle<> h);
  /// Enqueues the delivery of in-flight message `slot` at t — a typed
  /// entry, run through the loop's DeliverHook.
  void push_deliver(SimTime t, std::uint32_t slot);

  /// Removes and returns the earliest event (FIFO among equal times).
  Event pop();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Total number of events ever pushed.
  std::uint64_t pushed() const { return pushed_; }

  /// High-water mark of the queue depth (perf-harness metric: a proxy for
  /// how much concurrency the simulated algorithm exposes).
  std::size_t peak_size() const { return peak_; }

 private:
  /// Bucket entry: the timestamp's bit pattern and the tagged word.
  struct Entry {
    std::uint64_t key;
    std::uint64_t word;
  };
  static_assert(sizeof(Entry) == 16);

  static constexpr std::size_t kBuckets = 65;

  /// Checks the push contract for time t and returns its key.
  std::uint64_t key_of(SimTime t) const;
  /// Files an entry by its key relative to last_ and counts the push.
  void add(std::uint64_t key, std::uint64_t word);
  /// Files an entry by its key relative to last_.
  void file(const Entry& e);

  std::array<std::vector<Entry>, kBuckets> buckets_;
  /// Cached minimum key of each non-empty bucket 1..64; bucket 0's keys
  /// all equal last_.
  std::array<std::uint64_t, kBuckets> min_{};
  /// Bit b - 1 set iff bucket b (1..64) is non-empty.
  std::uint64_t mask_ = 0;
  /// Key of the last pop (0 before the first: times are non-negative).
  std::uint64_t last_ = 0;
  std::vector<EventFn> slots_;   // parked callables, indexed by slot
  std::vector<std::uint32_t> free_slots_;
  /// Read cursor into bucket 0, which is consumed front to back.
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
  std::size_t peak_ = 0;
};

inline void Event::run(const DeliverHook& deliver) {
  switch (word & EventQueue::kTagMask) {
    case EventQueue::kResumeTag:
      std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(word & ~EventQueue::kTagMask))
          .resume();
      return;
    case EventQueue::kDeliverTag:
      deliver.fn(deliver.ctx, static_cast<std::uint32_t>(word >> 2));
      return;
    default:
      fn();
      return;
  }
}

}  // namespace spb::sim
