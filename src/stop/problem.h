// An s-to-p broadcasting problem instance: a machine, the sorted source
// ranks, and the per-source message length L.  Matching the paper's setup,
// every rank knows the full source list before the broadcast starts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dist/distribution.h"
#include "dist/grid.h"
#include "machine/config.h"

namespace spb::stop {

/// Largest message length any problem (and the serve wire protocol's
/// "len") accepts: 1 TiB, far beyond any modeled transfer and far below
/// the point where byte counts stop converting exactly to simulated time.
inline constexpr Bytes kMaxMessageBytes = Bytes{1} << 40;

struct Problem {
  machine::MachineConfig machine;
  /// Sorted, distinct source ranks; 1 <= |sources| <= machine.p.
  std::vector<Rank> sources;
  /// Message length L at every source, in bytes.
  Bytes message_bytes = 1024;
  /// Optional per-source message lengths, aligned with `sources`
  /// (empty = every source sends `message_bytes`).  The paper's Section 5
  /// experiments with different-length messages; all algorithms handle
  /// them, planning with the uniform L as the nominal size.
  std::vector<Bytes> per_source_bytes;

  int p() const { return machine.p; }
  int s() const { return static_cast<int>(sources.size()); }
  dist::Grid grid() const { return {machine.rows, machine.cols}; }

  /// Message length of one source (per-source override or the uniform L).
  Bytes bytes_of_source(std::size_t source_index) const;

  /// Throws CheckError if the instance is malformed (including a message
  /// length above kMaxMessageBytes).
  void validate() const;
};

/// Convenience constructor: machine + one of the paper's distribution
/// families.
Problem make_problem(machine::MachineConfig machine, dist::Kind kind, int s,
                     Bytes message_bytes, std::uint64_t seed = 1);

/// Same with an explicit (possibly unsorted) source list.
Problem make_problem(machine::MachineConfig machine,
                     std::vector<Rank> sources, Bytes message_bytes);

/// Applies per-source length jitter: source j sends a length drawn
/// uniformly from [L*(1-spread), L*(1+spread)], seeded.  Models the
/// paper's different-length-messages experiments.
Problem with_varied_lengths(Problem pb, double spread, std::uint64_t seed);

}  // namespace spb::stop
