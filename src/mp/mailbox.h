// Per-rank buffer of arrived-but-not-yet-received messages.
//
// Sends are eager: the message is injected regardless of whether the
// destination has posted a receive, and parks here on arrival.  The message
// itself stays in the runtime's in-flight pool; the mailbox holds its pool
// slot with the two fields receives match on.  Receives match by (source
// rank, tag) — either may be a wildcard — in arrival order, which
// preserves FIFO per (src, dst, tag) triple.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "mp/message.h"

namespace spb::mp {

/// Source filter accepted by recv: a concrete rank or any source.
inline constexpr Rank kAnySource = -2;

class Mailbox {
 public:
  /// Parks arrived message `slot`, sent by `src` with `tag`.
  void park(std::uint32_t slot, Rank src, int tag);

  /// If a message matching `src` (or kAnySource) and `tag` (or kAnyTag) is
  /// parked, removes the earliest-arrived one and returns its slot.
  std::optional<std::uint32_t> take(Rank src, int tag);

  /// Reliable-delivery sequencing for fault runs: retransmission can
  /// reorder or replay a (src, dst) message stream, but programs are
  /// promised FIFO per (src, dst) — so arrivals pass through a per-source
  /// reorder buffer keyed by Message::seq.  Returns the slots that become
  /// releasable once message `slot` (sequence number `seq` from `src`)
  /// lands, in sequence order: empty when the message is early (its slot
  /// is held until the gap fills; a predecessor always arrives because
  /// final attempts are never dropped) or a duplicate (`duplicate` set;
  /// the caller frees the slot).  Only called for messages carrying a
  /// sequence number, so fault-free runs never touch this.
  std::vector<std::uint32_t> sequence(Rank src, std::uint32_t seq,
                                      std::uint32_t slot, bool& duplicate);

  bool empty() const { return size() == 0; }
  std::size_t size() const { return inbox_.size() - head_; }

 private:
  struct Parked {
    Rank src;
    int tag;
    std::uint32_t slot;
  };

  struct SeqState {
    std::uint32_t next = 0;                       // next seq to release
    std::map<std::uint32_t, std::uint32_t> held;  // early arrivals' slots
  };

  /// Arrival order from head_ on; the prefix before head_ is taken.
  std::vector<Parked> inbox_;
  std::size_t head_ = 0;
  std::unordered_map<Rank, SeqState> seq_;  // fault runs only, per source
};

}  // namespace spb::mp
