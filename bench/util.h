// Shared scaffolding for the benches: timing helpers, and the qualitative
// shape checks that turn each bench into an acceptance test (failed
// expectations set a non-zero exit code but keep printing, so one bad
// series does not hide the rest).
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/str.h"
#include "common/table.h"
#include "options.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "stop/run.h"

namespace spb::bench {

// Timed runs must not pay schedule-recording or tracing overhead; both are
// opt-in and the benches rely on the default staying off.
static_assert(!stop::RunOptions{}.trace,
              "RunOptions::trace must default to off for timed benches");
static_assert(!stop::RunOptions{}.record_schedule,
              "RunOptions::record_schedule must default to off for timed "
              "benches");
static_assert(!stop::RunOptions{}.faults.any(),
              "RunOptions::faults must default to no-faults so the fault "
              "hooks stay zero-cost in timed benches");
static_assert(!stop::RunOptions{}.link_stats,
              "RunOptions::link_stats must default to off so the network "
              "usage probe stays a null pointer in timed benches");

// The fluent RunConfig builder must lower to exactly the default
// RunOptions when nothing is configured — benches that migrate to it pay
// nothing.
static_assert(stop::RunConfig{}.options().verify &&
                  !stop::RunConfig{}.options().trace &&
                  !stop::RunConfig{}.options().record_schedule &&
                  !stop::RunConfig{}.options().link_stats &&
                  !stop::RunConfig{}.options().faults.any(),
              "RunConfig{} must lower to the all-off default RunOptions");

/// One cell of a figure sweep: an algorithm on a problem instance.
struct SweepCase {
  stop::AlgorithmPtr algorithm;
  stop::Problem problem;
};

/// Times every case, fanning out over `jobs` worker threads (see
/// bench/sweep_runner.h).  Returns milliseconds in case order; each run is
/// an independent deterministic simulation, so the results are identical
/// for every job count.
std::vector<double> time_ms_sweep(const std::vector<SweepCase>& cases,
                                  int jobs);

/// Worker-thread count for figure benches: the SPB_BENCH_JOBS environment
/// variable when set (0 = all cores), otherwise 1.
int default_jobs();

/// Global pass/fail state of the current bench binary.
class Checker {
 public:
  explicit Checker(std::string bench_name);

  /// Records an expectation; prints PASS/FAIL with the label.
  void expect(bool ok, const std::string& claim);

  /// Ratio check with tolerance: ok iff lo <= a/b <= hi.
  void expect_ratio(double a, double b, double lo, double hi,
                    const std::string& claim);

  /// Exit code for main(): 0 if everything held.
  int exit_code() const;

  int checks() const { return checks_; }
  int failures() const { return failures_; }

 private:
  std::string name_;
  int checks_ = 0;
  int failures_ = 0;
};

}  // namespace spb::bench
