// spb_perfbench — the repo benchmark program.
//
//   spb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans-out PATH]
//
// Workloads: sim_sweep, sim_large, serve_plan, check_sweep (see README.md).
// Progress, output checks and a readable report go to stderr; the last line
// of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"} holding every end-to-end metric (--trace 0) or every
// per-layer metric (--trace 1).  The exit code is 0 only when every output
// check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "bench.h"
#include "stats.h"

namespace perfbench {

void Result::fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "  CHECK FAILED: %s\n", what.c_str());
}

void Result::check(bool ok, const std::string& what) {
  if (ok)
    std::fprintf(stderr, "  check ok: %s\n", what.c_str());
  else
    fail(what);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"jobs_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"job.p50_us", "us"},
      {"job.p99_us", "us"},
      {"machine.from_name_us", "us"},
      {"dist.generate_us", "us"},
      {"stop.make_problem_us", "us"},
      {"stop.run_us", "us"},
      {"stop.verify_share", "ratio"},
      {"sim.events", "count"},
      {"sim.peak_queue_depth", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.queue_replay_ns", "ns"},
      {"sim.queue_share", "ratio"},
      {"net.transfers", "count"},
      {"net.hops", "count"},
      {"net.stall_us", "sim_us"},
      {"net.reserve_replay_ns", "ns"},
      {"net.reserve_share", "ratio"},
      {"mp.sends", "count"},
      {"mp.recvs", "count"},
      {"mp.waits", "count"},
      {"mp.runtime_share", "ratio"},
      {"fault.retransmits", "count"},
      {"fault.detours", "count"},
      {"sim.sharded.speedup_t2", "x"},
      {"sim.sharded.speedup_tN", "x"},
      {"sim.sharded.efficiency_tN", "ratio"},
      {"sim.sharded.idle_frac", "ratio"},
      {"sim.sharded.windows", "count"},
      {"sim.sharded.staged_xfers", "count"},
      {"sim.sharded.aborts", "count"},
      {"sim.sharded.mismatches", "count"},
      {"serve.parse_us", "us"},
      {"plan.signature_us", "us"},
      {"plan.cache_hit_us", "us"},
      {"serve.format_us", "us"},
      {"plan.planner_us", "us"},
      {"serve.queue_wait_p50_us", "us"},
      {"serve.queue_wait_p99_us", "us"},
      {"plan.hit_rate", "ratio"},
      {"plan.misses", "count"},
      {"plan.coalesced", "count"},
      {"serve.queue_max_depth", "count"},
      {"serve.shed", "count"},
      {"serve.req_per_s_w1", "req/s"},
      {"serve.scaling", "x"},
      {"serve.slo_req_per_s", "req/s"},
      {"serve.gen_lateness_p99_us", "us"},
      {"analyze.record_us", "us"},
      {"analyze.check_us", "us"},
      {"verify.match_us", "us"},
      {"verify.deadlock_us", "us"},
      {"verify.structure_us", "us"},
      {"verify.explore_us", "us"},
      {"verify.explore_states", "count"},
      {"analyze.violations", "count"},
      {"verify.rejected", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.residue_frac", "ratio"},
      {"trace.reconcile_err", "ratio"},
  };
  return defs;
}

Layers::Layers(Tracer& t)
    : job(t.intern("bench.job")),
      machine_from_name(t.intern("machine.from_name")),
      dist_generate(t.intern("dist.generate")),
      stop_make_problem(t.intern("stop.make_problem")),
      stop_run(t.intern("stop.run")),
      sim_queue_replay(t.intern("sim.queue_replay")),
      net_reserve_replay(t.intern("net.reserve_replay")),
      serve_parse(t.intern("serve.parse")),
      plan_signature(t.intern("plan.signature")),
      plan_cache_hit(t.intern("plan.cache_hit")),
      plan_cache_miss(t.intern("plan.cache_miss")),
      plan_planner(t.intern("plan.planner")),
      serve_format(t.intern("serve.format")),
      analyze_record(t.intern("analyze.record")),
      analyze_check(t.intern("analyze.check")),
      verify_match(t.intern("verify.match")),
      verify_deadlock(t.intern("verify.deadlock")),
      verify_structure(t.intern("verify.structure")),
      verify_explore(t.intern("verify.explore")) {}

void reconcile(Result& r, double untraced_ns, double traced_ns,
               double module_ns, double tracer_ns, bool gate) {
  const double attributed = traced_ns - tracer_ns;
  const double residue = attributed - module_ns;
  const double err = std::fabs(attributed - untraced_ns) / untraced_ns;
  r.values["trace.overhead_frac"] = (traced_ns - untraced_ns) / untraced_ns;
  r.values["trace.residue_frac"] = residue / attributed;
  r.values["trace.reconcile_err"] = err;
  std::fprintf(stderr,
               "  trace: untraced %.0f ns/job, traced %.0f ns/job of which "
               "%.0f is the tracer's own cost; module spans %.0f ns/job, "
               "residue %.2f%%\n",
               untraced_ns, traced_ns, tracer_ns, module_ns,
               100 * residue / attributed);
  if (gate)
    r.check(err <= 0.10, "module self times + residue reconcile with the "
                         "untraced wall within 10% (off by " +
                             std::to_string(100 * err) + "%)");
}

SetupSamples::SetupSamples(std::function<double()> once)
    : once_(std::move(once)) {}

void SetupSamples::sample(double budget_s) {
  double spent = 0;
  do {
    seconds_.push_back(once_());
    spent += seconds_.back();
  } while (spent < budget_s);
}

double SetupSamples::value() const {
  std::vector<double> sorted = seconds_;
  std::sort(sorted.begin(), sorted.end());
  std::fprintf(stderr, "  set-up: fastest %.6f s, median %.6f s over %zu "
                       "set-ups\n",
               sorted.front(), median(sorted), sorted.size());
  return sorted.front();
}

double module_self_ns(const std::map<std::string, LayerTime>& self) {
  double ns = 0;
  for (const auto& [name, lt] : self)
    if (name != "bench.job") ns += lt.self_ns;
  return ns;
}

}  // namespace perfbench

namespace {

using perfbench::Args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "spb_perfbench: %s\nusage: spb_perfbench --workload "
               "sim_sweep|sim_large|serve_plan|check_sweep --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

void print_json(const perfbench::Result& r, bool trace) {
  const auto& defs = trace ? perfbench::per_layer_metrics()
                           : perfbench::end_to_end_metrics();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = r.values.find(defs[i].name);
    const double v = it == r.values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, std::isfinite(v) ? v : 0.0,
                defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  perfbench::Result r;
  perfbench::Tracer tracer;
  try {
    if (args.workload == "sim_sweep" || args.workload == "sim_large")
      r = perfbench::run_sim(args, tracer);
    else if (args.workload == "serve_plan")
      r = perfbench::run_serve_plan(args, tracer);
    else if (args.workload == "check_sweep")
      r = perfbench::run_check_sweep(args, tracer);
    else
      usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spb_perfbench: %s aborted: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  if (r.attempted == 0) r.fail("no job was attempted");
  if (args.trace && !args.spans_out.empty() &&
      !tracer.write_json(args.spans_out))
    r.fail("cannot write spans to " + args.spans_out);

  const auto& defs = args.trace ? perfbench::per_layer_metrics()
                                : perfbench::end_to_end_metrics();
  std::fprintf(stderr, "\n%s (seed %llu, %s):\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               args.trace ? "traced" : "untraced");
  for (const auto& d : defs) {
    const auto it = r.values.find(d.name);
    std::fprintf(stderr, "  %-28s %14.6g %s\n", d.name,
                 it == r.values.end() ? 0.0 : it->second, d.unit);
  }
  std::fprintf(stderr, "  failed_frac %.6g (%llu failed or shed of %llu "
                       "attempted)\n",
               r.attempted == 0 ? 0.0
                                : static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(r.attempted));
  print_json(r, args.trace);
  return r.correct ? 0 : 1;
}
