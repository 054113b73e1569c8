// One spb_check combination as a pure function.
//
// spb_check sweeps machine x algorithm x distribution (or seeded random
// problems); this header factors the per-combination work — record,
// optionally mutate, then analyze (src/analyze) or certify (src/verify),
// and format the report lines — out of the CLI loop so that
//  * the CLI can fan combinations out over bench::SweepRunner, and
//  * tests can assert that a parallel sweep is byte-identical to a serial
//    one (the combo returns its output as text instead of printing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/checks.h"
#include "analyze/mutate.h"
#include "common/types.h"
#include "dist/distribution.h"
#include "fault/fault.h"
#include "machine/config.h"
#include "stop/algorithm.h"
#include "verify/certificate.h"
#include "verify/explore.h"

namespace spb::verify {

/// One point of the sweep grid.
struct SweepCombo {
  std::string machine_key;  // "paragon4x4" etc., used in report lines
  machine::MachineConfig machine;
  stop::AlgorithmPtr algorithm;
  dist::Kind kind = dist::Kind::kRow;
  /// >= 0: a seeded random problem instead of `kind` — source count drawn
  /// from [min(2, p), p] and Rand placement, both from seed + trial.
  int trial = -1;
};

struct SweepOptions {
  /// Certify each schedule (the model checker) instead of analyzing it.
  bool certify = false;
  int s = 0;  // source count; 0 = p/4 (at least 2); always clamped to p
  Bytes bytes = 2048;
  std::uint64_t seed = 1;
  /// When non-empty, each mutation is seeded and must be rejected.
  std::vector<analyze::Mutation> mutations;
  /// Fault injection applied to every run the analyzer records (default:
  /// none; --certify ignores it).  A fresh plan is built per machine from
  /// `fault_seed` — determinism of a parallel sweep is unaffected because
  /// plans are pure.
  fault::FaultSpec faults{};
  std::uint64_t fault_seed = 1;
  bool verbose = false;
  analyze::AnalysisOptions analysis;
  ExploreOptions explore;
};

/// What one combination contributed: the exact text a serial CLI would
/// have printed, the counters for the final summary line and, when
/// certifying, the certificates.
struct ComboResult {
  std::string text;
  int combos = 0;    // checked sub-combos (mutation skips don't count)
  int rejected = 0;  // flagged by the analyzer, or not certified
  std::vector<Certificate> certificates;
};

/// Checks one combination.  Self-contained and thread-safe: reads only
/// its inputs, touches no global state, and returns its report as text.
/// A combination that throws reports its own FAIL line.
ComboResult check_combo(const SweepCombo& combo, const SweepOptions& opt);

}  // namespace spb::verify
