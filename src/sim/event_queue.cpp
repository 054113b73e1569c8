#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace spb::sim {

void EventQueue::file(const Entry& e) {
  const auto b = static_cast<std::size_t>(std::bit_width(e.key ^ last_));
  std::vector<Entry>& bucket = buckets_[b];
  bucket.push_back(e);
  if (b != 0) {
    min_[b] = bucket.size() == 1 ? e.key : std::min(min_[b], e.key);
    mask_ |= std::uint64_t{1} << (b - 1);
  }
}

// The helpers of the push hot path, kept inline in it.
[[gnu::always_inline]] inline std::uint64_t EventQueue::key_of(
    SimTime t) const {
  SPB_REQUIRE(t >= 0, "cannot schedule an event at negative time " << t);
  // + 0.0 normalizes -0.0, whose bit pattern would order last.
  const auto key = std::bit_cast<std::uint64_t>(t + 0.0);
  SPB_REQUIRE(key >= last_, "event at t=" << t << " precedes the last pop at t="
                                          << std::bit_cast<SimTime>(last_)
                                          << "; the queue is monotone");
  return key;
}

[[gnu::always_inline]] inline void EventQueue::add(std::uint64_t key,
                                                   std::uint64_t word) {
  file(Entry{key, word});
  ++pushed_;
  if (++size_ > peak_) peak_ = size_;
}

void EventQueue::push(SimTime t, EventFn fn) {
  SPB_REQUIRE(static_cast<bool>(fn), "cannot schedule a null event callback");
  const std::uint64_t key = key_of(t);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  add(key, (std::uint64_t{slot} << 2) | kFnTag);
}

void EventQueue::push_resume(SimTime t, std::coroutine_handle<> h) {
  SPB_REQUIRE(static_cast<bool>(h), "cannot schedule a null coroutine");
  const auto addr = reinterpret_cast<std::uintptr_t>(h.address());
  SPB_CHECK_MSG((addr & kTagMask) == 0,
                "coroutine frame " << h.address() << " is not 4-byte aligned");
  add(key_of(t), std::uint64_t{addr} | kResumeTag);
}

void EventQueue::push_deliver(SimTime t, std::uint32_t slot) {
  add(key_of(t), (std::uint64_t{slot} << 2) | kDeliverTag);
}

Event EventQueue::pop() {
  SPB_REQUIRE(size_ != 0, "pop() on an empty event queue");
  std::vector<Entry>& front = buckets_[0];
  if (front.empty()) {
    // Advance last_ to the lowest non-empty bucket's minimum and spread
    // that bucket over the (empty) lower ones, in order.
    const std::size_t b =
        static_cast<std::size_t>(std::countr_zero(mask_)) + 1;
    std::vector<Entry>& spill = buckets_[b];
    last_ = min_[b];
    mask_ &= mask_ - 1;
    for (const Entry& e : spill) file(e);
    spill.clear();
  }
  const Entry top = front[head_];
  if (++head_ == front.size()) {
    front.clear();
    head_ = 0;
  }
  --size_;
  // Both returns are prvalues, so the Event is built in the caller's slot.
  if ((top.word & kTagMask) != kFnTag)
    return Event{std::bit_cast<SimTime>(top.key), EventFn{}, top.word};
  const auto slot = static_cast<std::uint32_t>(top.word >> 2);
  free_slots_.push_back(slot);
  return Event{std::bit_cast<SimTime>(top.key), std::move(slots_[slot]),
               top.word};
}

}  // namespace spb::sim
