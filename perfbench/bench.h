// Shared types: command-line arguments, the result every workload
// fills, and the benchmark's metric catalogue.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans ("" = not written).
  std::string spans_out;
};

/// The seed the pinned simulation digests were taken with.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value.  Only catalogue names below are printed; a
  /// catalogue metric without a value prints as 0.
  std::map<std::string, double> values;

  /// Records a failed output check (printed to stderr).
  void fail(const std::string& what);
  /// Prints a check line to stderr and records failure when !ok.
  void check(bool ok, const std::string& what);
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, printed by every traced run; a layer a workload
/// does not exercise reads 0.
const std::vector<MetricDef>& per_layer_metrics();

/// Span names of the benchmark's layers, interned once per tracer.
struct Layers {
  explicit Layers(Tracer& t);

  std::uint32_t job;  // the harness: one timed job, parent of the rest
  std::uint32_t machine_from_name;
  std::uint32_t dist_generate;
  std::uint32_t stop_make_problem;
  std::uint32_t stop_run;
  std::uint32_t sim_queue_replay;
  std::uint32_t net_reserve_replay;
  std::uint32_t serve_parse;
  std::uint32_t plan_signature;
  std::uint32_t plan_cache_hit;
  std::uint32_t plan_cache_miss;
  std::uint32_t plan_planner;
  std::uint32_t serve_format;
  std::uint32_t analyze_record;
  std::uint32_t analyze_check;
  std::uint32_t verify_match;
  std::uint32_t verify_deadlock;
  std::uint32_t verify_structure;
  std::uint32_t verify_explore;
};

/// Tracing overhead and reconciliation of one traced workload.  The same
/// jobs ran with spans off (untraced_ns per job) and on (traced_ns per
/// job); module_ns is the per-job self time of the module spans and
/// tracer_ns the tracer's own per-job cost (Tracer::span_cost_ns() x spans
/// recorded per job).  The traced attribution is the
/// module self times plus the residue no module span explains, which sums
/// to traced_ns - tracer_ns.  Fills trace.overhead_frac,
/// trace.residue_frac and trace.reconcile_err, the distance of the
/// attribution from the untraced wall as a share of it; when `gate` is
/// set, a distance above 10% fails the run.
void reconcile(Result& r, double untraced_ns, double traced_ns,
               double module_ns, double tracer_ns, bool gate);

/// Set-up sampling after a timed pass takes this share of the pass's time,
/// and this long before the first pass.
inline constexpr double kSetupShare = 0.05;
inline constexpr double kSetupFirstS = 0.1;

/// setup_s from set-ups spread over the whole run.  One set-up takes
/// milliseconds, and the host's speed drifts over seconds, so set-ups
/// timed back to back all land in the same fast or slow stretch.  The
/// workload calls sample() between its timed passes; `once` sets the
/// workload up again and returns the seconds its timed part took.  Host
/// noise only ever slows a set-up down, so the value is the fastest one,
/// as jobs_per_s takes each job's fastest time.
class SetupSamples {
 public:
  explicit SetupSamples(std::function<double()> once);
  /// Adds a set-up timed elsewhere (the one the timed loop uses).
  void add(double seconds) { seconds_.push_back(seconds); }
  /// Times set-ups for about `budget_s` seconds, at least one.
  void sample(double budget_s);
  /// The fastest set-up; also reports the samples on stderr.
  double value() const;

 private:
  std::function<double()> once_;
  std::vector<double> seconds_;
};

/// Module-span self time (everything but the bench.job harness span) in
/// self_times() output.
double module_self_ns(const std::map<std::string, LayerTime>& self);

/// The workloads.  A traced run records its spans on `tracer`; main
/// writes them out at exit.
Result run_sim(const Args& args, Tracer& tracer);  // sim_sweep, sim_large
Result run_serve_plan(const Args& args, Tracer& tracer);
Result run_check_sweep(const Args& args, Tracer& tracer);

}  // namespace perfbench
