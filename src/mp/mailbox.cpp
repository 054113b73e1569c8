#include "mp/mailbox.h"

#include <cstddef>

namespace spb::mp {

void Mailbox::park(std::uint32_t slot, Rank src, int tag) {
  // Drop the taken prefix once it is at least half the vector, so a
  // mailbox that never quite empties stays O(parked) (amortized O(1)).
  if (head_ != 0 && 2 * head_ >= inbox_.size()) {
    inbox_.erase(inbox_.begin(),
                 inbox_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  inbox_.push_back(Parked{src, tag, slot});
}

std::optional<std::uint32_t> Mailbox::take(Rank src, int tag) {
  for (std::size_t i = head_; i < inbox_.size(); ++i) {
    const Parked& p = inbox_[i];
    const bool src_ok = src == kAnySource || p.src == src;
    const bool tag_ok = tag == kAnyTag || p.tag == tag;
    if (!src_ok || !tag_ok) continue;
    const std::uint32_t slot = p.slot;
    if (i == head_) {
      ++head_;
    } else {
      inbox_.erase(inbox_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (head_ == inbox_.size()) {
      inbox_.clear();
      head_ = 0;
    }
    return slot;
  }
  return std::nullopt;
}

std::vector<std::uint32_t> Mailbox::sequence(Rank src, std::uint32_t seq,
                                             std::uint32_t slot,
                                             bool& duplicate) {
  duplicate = false;
  SeqState& st = seq_[src];
  if (seq < st.next || st.held.contains(seq)) {
    duplicate = true;
    return {};
  }
  std::vector<std::uint32_t> ready;
  if (seq != st.next) {
    st.held.emplace(seq, slot);  // early: wait for the gap
    return ready;
  }
  ready.push_back(slot);
  ++st.next;
  for (auto it = st.held.find(st.next); it != st.held.end();
       it = st.held.find(st.next)) {
    ready.push_back(it->second);
    st.held.erase(it);
    ++st.next;
  }
  return ready;
}

}  // namespace spb::mp
