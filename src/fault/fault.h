// Deterministic fault injection: what can go wrong on the machine, decided
// up front from a seed.
//
// A FaultSpec describes an adverse environment — degraded links (bandwidth
// divisor + per-hop latency multiplier on a seeded subset of the directed
// links), transient in-transit message drops, lost delivery acknowledgements
// (which provoke duplicate retransmissions), and straggler ranks whose
// software overheads run slow.  A FaultPlan freezes one concrete instance of
// that spec: which links, which ranks, and a pure decision function for
// every (src, dst, seq, attempt) message event.
//
// Every decision is a stateless hash of (seed, identifiers), never a stateful
// RNG draw, so the plan's answers do not depend on the order the simulator
// asks — identical seed + spec gives byte-identical simulations regardless
// of run count or sweep-thread count.
//
// The runtime machinery that consumes a plan (per-send retransmit timers
// with bounded exponential backoff, duplicate suppression, degraded-route
// bypass) lives in mp::Runtime and net::NetworkModel; this layer only
// answers questions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace spb::fault {

/// Fault intensity knobs.  The default-constructed spec is "no faults" and
/// every hook gated on it must cost nothing (see RunOptions in stop/run.h).
struct FaultSpec {
  /// Probability that one transmission attempt is lost in transit.
  double drop_rate = 0.0;
  /// Probability that a delivered attempt's acknowledgement is lost, making
  /// the sender retransmit a duplicate the receiver must suppress.
  double dup_rate = 0.0;
  /// Fraction of the directed links degraded (seeded choice).
  double link_fraction = 0.0;
  /// Serialization slowdown on degraded links (1 = no degradation).
  double bandwidth_divisor = 1.0;
  /// Per-hop latency multiplier on degraded links.
  double latency_factor = 1.0;
  /// Number of straggler ranks (seeded choice).
  int stragglers = 0;
  /// Software-overhead multiplier applied to straggler ranks.
  double straggle_factor = 1.0;
  /// 0 = link degradation is permanent; otherwise it alternates on/off with
  /// this period (on during even windows), modelling transient brown-outs.
  SimTime window_us = 0.0;
  /// Base retransmit timeout; attempt k retries backoff_us(k) after its
  /// injection finished, doubling per attempt.
  SimTime retransmit_timeout_us = 50.0;
  /// Transmission attempts per message, including the first.  Drops are
  /// transient: the final attempt always goes through, so every fault plan
  /// still delivers everything and stop::verify must pass.
  int max_attempts = 8;

  /// True when any knob is set — the runtime skips all fault machinery
  /// otherwise.  constexpr so bench/util.h can statically assert the
  /// default stays off.
  constexpr bool any() const {
    return drop_rate > 0 || dup_rate > 0 || degrades_links() || stragglers > 0;
  }
  /// True when individual message transmissions can be lost or duplicated.
  constexpr bool message_faults() const {
    return drop_rate > 0 || dup_rate > 0;
  }
  constexpr bool degrades_links() const {
    return link_fraction > 0 &&
           (bandwidth_divisor > 1.0 || latency_factor > 1.0);
  }

  /// Throws CheckError when a knob is out of range (rates in [0,1), factors
  /// >= 1, max_attempts >= 1, ...).
  void validate() const;

  /// Parses a comma-separated spec, e.g.
  ///   "drop=0.1,dup=0.05,links=0.25x4,lat=2,straggle=1x3,window=5000"
  /// Keys: drop=R, dup=R, links=FRACxDIV, lat=F, straggle=NxF, window=US,
  /// timeout=US, attempts=N.  Unknown keys throw CheckError.
  static FaultSpec parse(const std::string& text);

  /// Canonical spec string (parse round-trips it).
  std::string to_string() const;
};

/// One frozen instance of a FaultSpec on a concrete machine.
class FaultPlan {
 public:
  /// Seeds the degraded-link and straggler choices from `seed`.
  FaultPlan(const FaultSpec& spec, std::uint64_t seed, int link_space,
            int ranks);

  /// Test hook: a plan degrading exactly `links`, no seeded choice.
  static FaultPlan for_links(const FaultSpec& spec, std::uint64_t seed,
                             std::vector<LinkId> links, int link_space,
                             int ranks);

  const FaultSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }

  // --- links ------------------------------------------------------------

  bool degrades_links() const { return !degraded_.empty(); }
  bool link_degraded(LinkId l) const {
    return !degraded_.empty() && degraded_[static_cast<std::size_t>(l)] != 0;
  }
  /// Serialization divisor of one link (1.0 when clean or windows off).
  double bandwidth_divisor(LinkId l) const {
    return link_degraded(l) ? spec_.bandwidth_divisor : 1.0;
  }
  double latency_factor(LinkId l) const {
    return link_degraded(l) ? spec_.latency_factor : 1.0;
  }
  const std::vector<LinkId>& degraded_links() const {
    return degraded_list_;
  }

  /// Which degradation window `t` falls into (0 when not windowed).
  std::uint64_t window_index(SimTime t) const;
  /// Degradation is live at `t`: always with window_us == 0, during even
  /// windows otherwise.
  bool window_active(SimTime t) const;

  // --- messages ---------------------------------------------------------

  /// Attempt `attempt` of message (src -> dst, seq) is lost in transit.
  /// Pure function of (seed, ids); the last attempt is never dropped.
  bool transit_dropped(Rank src, Rank dst, std::uint32_t seq,
                       int attempt) const;

  /// The acknowledgement of a delivered attempt is lost (sender will send
  /// one duplicate).
  bool ack_dropped(Rank src, Rank dst, std::uint32_t seq, int attempt) const;

  /// Bounded exponential backoff: timeout * 2^attempt, capped at 32x.
  SimTime backoff_us(int attempt) const;

  int max_attempts() const { return spec_.max_attempts; }

  // --- stragglers -------------------------------------------------------

  /// Software-overhead multiplier of one rank (1.0 for healthy ranks).
  double rank_slowdown(Rank r) const {
    return slowdown_.empty() ? 1.0 : slowdown_[static_cast<std::size_t>(r)];
  }
  const std::vector<Rank>& straggler_ranks() const { return stragglers_; }

 private:
  FaultPlan(const FaultSpec& spec, std::uint64_t seed);
  void pick_stragglers(int ranks);
  void set_degraded(std::vector<LinkId> links, int link_space);

  FaultSpec spec_;
  std::uint64_t seed_ = 0;
  std::vector<std::uint8_t> degraded_;   // per LinkId, empty = none
  std::vector<LinkId> degraded_list_;    // sorted
  std::vector<double> slowdown_;         // per rank, empty = none
  std::vector<Rank> stragglers_;         // sorted
};

using FaultPlanPtr = std::shared_ptr<const FaultPlan>;

/// A "[SEED:]SPEC" fault argument, split and parsed: the CLIs' --faults
/// and the serve protocol's "faults" field.
struct SeededSpec {
  std::uint64_t seed = 1;
  FaultSpec spec;
  /// The argument as given (the plan signature's fault context).
  std::string text;
};

/// Parses "[SEED:]SPEC" (e.g. "42:drop=0.1,links=0.25x4"); a bare spec
/// without the colon keeps `default_seed`.  A bad seed throws CheckError
/// naming "fault seed in <where>" ("fault seed" when `where` is empty), a
/// bad spec whatever FaultSpec::parse throws.
SeededSpec parse_seeded(const std::string& text, const std::string& where = {},
                        std::uint64_t default_seed = 1);

/// parse_seeded, then the plan for that seed and spec on a machine.
FaultPlanPtr parse_plan(const std::string& text, int link_space, int ranks,
                        std::uint64_t default_seed = 1);

}  // namespace spb::fault
