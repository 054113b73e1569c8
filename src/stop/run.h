// The experiment harness: builds a runtime for the problem's machine,
// spawns the algorithm's rank programs, runs the simulation, verifies the
// broadcast, and returns the timing plus the paper's Figure-2 metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "mp/payload.h"
#include "mp/runtime.h"
#include "net/network.h"
#include "stop/algorithm.h"
#include "stop/problem.h"

namespace spb::stop {

struct RunResult {
  /// Completion time of the slowest rank, simulated microseconds — the
  /// quantity every figure of the paper plots.
  SimTime time_us = 0;
  mp::RunOutcome outcome;
  /// Final payload of every rank (small: symbolic chunks only).
  std::vector<mp::Payload> final_payloads;
  /// Filled when RunOptions::trace is set (see mp/trace.h).
  mp::Trace trace;
  /// Filled when RunOptions::record_schedule is set (see mp/schedule.h).
  mp::Schedule schedule;
  /// Filled when RunOptions::link_stats is set: per-link busy/queued time
  /// over the machine's link space (see net::LinkUsageProbe).
  net::LinkUsageProbe link_usage;
};

struct RunOptions {
  /// Verify every rank's result and throw CheckError on corruption
  /// (always on in tests and benches; switchable for micro-profiling).
  bool verify = true;
  /// Record a full communication trace into RunResult::trace.
  bool trace = false;
  /// Record the symbolic send/recv schedule into RunResult::schedule.
  /// Off by default: recording writes every operation into the schedule,
  /// and timed bench runs must not pay that overhead (bench/util
  /// statically asserts the default stays off).
  bool record_schedule = false;
  /// Fault injection: when any knob of the spec is set, a deterministic
  /// FaultPlan seeded with `fault_seed` is built for the problem's machine
  /// and installed on the runtime.  The default spec is faults-off and
  /// must stay that way (bench/util statically asserts it) so the fault
  /// hooks cost nothing in timed runs.
  fault::FaultSpec faults{};
  std::uint64_t fault_seed = 1;
  /// Accumulate per-link busy/queued time into RunResult::link_usage.
  /// Off by default — the network hot path must stay probe-free in timed
  /// benches (bench/util statically asserts this).
  bool link_stats = false;
};

/// Fluent alternative to aggregate-initializing RunOptions — reads better
/// when several observers are switched on:
///
///   stop::run(alg, pb, stop::RunConfig{}.trace().link_stats());
///   stop::run(alg, pb, stop::RunConfig{}.no_verify().faults(spec, 7));
///
/// Every method returns *this by value semantics-friendly reference, and
/// the implicit conversion lowers to the RunOptions aggregate, so both
/// styles feed the same run().  Constexpr throughout: bench/util statically
/// asserts RunConfig{} stays bit-identical to RunOptions{} (zero-cost
/// defaults).
class RunConfig {
 public:
  constexpr RunConfig() = default;

  constexpr RunConfig& verify(bool on = true) {
    opts_.verify = on;
    return *this;
  }
  constexpr RunConfig& no_verify() { return verify(false); }
  constexpr RunConfig& trace(bool on = true) {
    opts_.trace = on;
    return *this;
  }
  constexpr RunConfig& record_schedule(bool on = true) {
    opts_.record_schedule = on;
    return *this;
  }
  constexpr RunConfig& link_stats(bool on = true) {
    opts_.link_stats = on;
    return *this;
  }
  constexpr RunConfig& faults(const fault::FaultSpec& spec,
                              std::uint64_t seed = 1) {
    opts_.faults = spec;
    opts_.fault_seed = seed;
    return *this;
  }
  /// Changes nothing: the simulator has one event loop.  Kept only for
  /// perfbench/sim_workloads.cpp, its only caller.
  constexpr RunConfig& sim_threads(int /*threads*/) { return *this; }

  constexpr const RunOptions& options() const { return opts_; }
  // NOLINTNEXTLINE(google-explicit-constructor): lowering is the point
  constexpr operator RunOptions() const { return opts_; }

 private:
  RunOptions opts_{};
};

RunResult run(const Algorithm& algorithm, const Problem& problem,
              RunOptions options = {});

/// Convenience: milliseconds, matching the paper's plots.
inline double run_ms(const Algorithm& algorithm, const Problem& problem) {
  return run(algorithm, problem).time_us / 1000.0;
}

}  // namespace spb::stop
