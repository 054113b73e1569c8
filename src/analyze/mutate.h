// Seeded schedule mutations — the analyzer's own test harness.
//
// Each mutation seeds one classic algorithm bug into a recorded schedule;
// analyze_schedule() must flag every one of them with an actionable
// report.  The `spb_check --mutate` CLI mode and
// tests/analyze/mutation_test.cpp drive these.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mp/schedule.h"

namespace spb::analyze {

enum class Mutation {
  /// Removes one consumed send: its receiver hangs (unmatched recv) and
  /// downstream ranks lose chunk coverage.
  kDropSend,
  /// Rewrites one send's tag to a value no receive expects: the pinned
  /// receive starves and the send is never consumed.
  kTagMismatch,
  /// Duplicates one chunk inside a send's chunk set: the payload-algebra
  /// integrity check fires.
  kDuplicateChunk,
  /// Reorders a matched exchange pair so both ranks post their receive
  /// before the send the peer is waiting for: the wait-for graph gains a
  /// cycle (the classic send/recv ordering deadlock).
  kCyclicWait,
};

std::string mutation_name(Mutation m);
Mutation mutation_from_name(const std::string& name);
const std::vector<Mutation>& all_mutations();

struct MutationResult {
  mp::Schedule schedule;
  /// What was seeded, naming the op (rank/step/tag) — test oracles match
  /// the analyzer's report against this.
  std::string description;
  /// Id of the mutated/removed op in the *original* schedule.
  int target_op = -1;
};

/// Applies one seeded mutation.  Throws CheckError when the schedule has
/// no eligible op (e.g. tag mismatch needs a tag-pinned receive).
MutationResult apply_mutation(const mp::Schedule& schedule, Mutation m,
                              std::uint64_t seed);

}  // namespace spb::analyze
