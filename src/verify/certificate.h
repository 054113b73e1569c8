// The determinism certificate: one verdict per (algorithm, problem)
// aggregating every model-checker layer, emitted as JSON through
// obs::JsonWriter so CI can archive it as an artifact.
//
// A schedule is *certified* when all of the following hold:
//
//   1. the recording run itself completed (no deadlock, no CheckError);
//   2. the recorded match graph is complete, tag-disciplined and
//      FIFO-safe (verify::check_match_graph);
//   3. the wait-for graph is acyclic (verify::check_deadlock_free);
//   4. the pool/segment structure satisfies the confluence conditions —
//      class bijection, segment self-containment, steal safety
//      (verify::extract_structure);
//   5. exhaustive exploration of alternative delivery orders finds no
//      stuck state and reaches the unique all-consumed terminal state
//      (verify::explore).
//
// Together, 2-5 say: every delivery order the runtime could produce
// executes the same per-rank programs with the same per-receive
// deliveries and terminates — the final payload assignment cannot depend
// on event-order, which is the property the intra-run parallelism work
// (ROADMAP items 1 and 3) needs as its baseline.
//
// Certificates carrying `dispatch_assumption: true` additionally rely on
// pool segments being message-driven (structure.h); bench/ext_verify
// backs that assumption with a dynamic fault-perturbation cross-check.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "mp/schedule.h"
#include "obs/json.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "verify/explore.h"
#include "verify/match.h"
#include "verify/structure.h"

namespace spb::verify {

struct Certificate {
  // Provenance (empty when certifying a bare schedule).
  std::string algorithm;
  std::string machine;
  int ranks = 0;
  int sources = 0;
  Bytes message_bytes = 0;

  /// The recording run completed; `recorded_failure` holds the runtime
  /// diagnostic otherwise.
  bool recorded_completed = true;
  std::string recorded_failure;

  MatchCheck match;
  DeadlockCheck deadlock;
  Structure structure;
  ExploreResult exploration;

  bool certified = false;
  /// One line per failed obligation (empty when certified).
  std::vector<std::string> reasons;

  std::string verdict() const { return certified ? "certified" : "rejected"; }
  /// Multi-line human-readable summary.
  std::string to_string() const;
};

/// Runs layers 2-5 on an already-recorded (possibly mutated) schedule.
/// `sources` are the problem's source ranks.
Certificate certify_schedule(const mp::Schedule& schedule,
                             std::span<const Rank> sources,
                             const ExploreOptions& options = {});

/// Records one run of `algorithm` on `problem` and certifies it,
/// including obligation 1 (the recording completed).
Certificate certify(const stop::Algorithm& algorithm,
                    const stop::Problem& problem,
                    const ExploreOptions& options = {});

/// Emits the certificate as one JSON object on `w` (caller owns the
/// surrounding document, e.g. an array of certificates).
void write_certificate(obs::JsonWriter& w, const Certificate& cert);

/// Convenience: a complete JSON document with a single certificate.
void write_certificate_json(std::ostream& os, const Certificate& cert);

}  // namespace spb::verify
