// ext_serve — serving-layer throughput and determinism gate.
//
// Drives a seeded stream of plan requests (the spb_plan --replay stream of
// plan/replay.h, in wire form) through an in-process serve::Server at 1,
// 2, 4 and 8 workers, with blocking admission so nothing is load-shed.
// Checks:
//
//   1. the response stream is byte-identical at every worker count
//      (responses are pure functions of requests; the server's output
//      ring restores submission order),
//   2. no request is answered with an error or "overloaded",
//   3. the aggregate cache statistics reconcile: misses == distinct
//      signatures (coalescing: the planner ran once per signature),
//      hits == requests - misses,
//   4. full tier only: sustained throughput >= 100k plan requests/sec.
//
// Emits BENCH_serve.json for tools/bench_compare.py (baseline
// bench/BENCH_serve_baseline.json): throughput is a gated _per_sec rate,
// the latency percentiles ride along as info metrics.
//
//   ext_serve                    # full tier: 100k requests
//   ext_serve out.json --quick   # CI tier: 20k requests
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "machine/config.h"
#include "options.h"
#include "plan/replay.h"
#include "serve/server.h"

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace): bench main
using Clock = std::chrono::steady_clock;

struct SessionResult {
  std::string output;
  double wall_ms = 0;
  plan::CacheStats cache;
  serve::RequestCounters counters;
  serve::LatencyHistogram::Snapshot latency;
};

SessionResult serve_session(const std::string& machine,
                            const std::vector<std::string>& lines,
                            int workers) {
  std::ostringstream out;
  serve::ServerOptions options;
  options.machine = machine;
  options.workers = workers;
  SessionResult r;
  {
    serve::Server server(options, out);
    const Clock::time_point t0 = Clock::now();
    for (const std::string& line : lines) server.submit_line_wait(line);
    server.drain();
    r.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
    r.cache = server.cache_stats();
    r.counters = server.counters();
    r.latency = server.latency();
  }
  r.output = out.str();
  return r;
}

bool claim(bool ok, const char* what) {
  std::printf("  %-58s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

void write_json(const std::vector<std::pair<std::string, double>>& metrics,
                const std::string& path, bool quick) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"quick\": %s,\n  \"metrics\": {\n",
               quick ? "true" : "false");
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::fprintf(f, "    \"%s\": %.4f%s\n", metrics[i].first.c_str(),
                 metrics[i].second, i + 1 < metrics.size() ? "," : "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const bench::Options opt = bench::parse_options(
      argc, argv,
      {.description = "Serving-layer gate: plan-request throughput, "
                      "byte-identity across worker counts, cache "
                      "reconciliation",
       .extras = {{.name = "--quick",
                   .toggle = &quick,
                   .help = "CI tier (20k requests; throughput not gated)"}},
       .allow_positional = true,
       .positional_help = "[out.json]"});
  const std::string machine_name = opt.machine.value_or("paragon8x8");
  const machine::MachineConfig mc = machine::from_name(machine_name);
  const int count = quick ? 20000 : 100000;
  const std::uint64_t seed = opt.seed_or(7);
  const std::string out = opt.out_or(
      opt.positional.empty() ? "BENCH_serve.json" : opt.positional);

  std::printf("ext_serve: %d plan requests, machine %s, seed %llu%s\n",
              count, machine_name.c_str(),
              static_cast<unsigned long long>(seed),
              quick ? " (quick)" : "");

  // The plan replay stream as wire requests, then a closing stats barrier.
  plan::ReplayStream stream(mc.p, seed);
  std::vector<std::string> lines;
  for (int i = 0; i < count; ++i)
    lines.push_back(plan::wire_line(stream.next()));
  lines.push_back("{\"op\":\"stats\",\"deterministic\":true}");

  const std::vector<int> worker_counts = {1, 2, 4, 8};
  std::vector<SessionResult> sessions;
  sessions.reserve(worker_counts.size());
  for (const int w : worker_counts)
    sessions.push_back(serve_session(machine_name, lines, w));

  bool ok = true;
  std::printf("\nchecks:\n");
  for (std::size_t i = 1; i < sessions.size(); ++i) {
    char what[80];
    std::snprintf(what, sizeof(what),
                  "responses byte-identical: workers %d vs %d",
                  worker_counts[0], worker_counts[i]);
    ok &= claim(sessions[i].output == sessions[0].output, what);
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const serve::RequestCounters& c = sessions[i].counters;
    char what[80];
    std::snprintf(what, sizeof(what),
                  "no errors, no shedding (workers %d)", worker_counts[i]);
    ok &= claim(c.errors == 0 && c.shed == 0 &&
                    c.plan == static_cast<std::uint64_t>(count) &&
                    c.stats == 1,
                what);
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const plan::CacheStats& cs = sessions[i].cache;
    char what[80];
    std::snprintf(what, sizeof(what),
                  "cache reconciles: hits+misses==requests (workers %d)",
                  worker_counts[i]);
    ok &= claim(cs.lookups() == static_cast<std::uint64_t>(count), what);
  }
  // Coalescing invariant: the planner ran once per distinct signature at
  // every worker count — the miss counts agree across sessions.
  for (std::size_t i = 1; i < sessions.size(); ++i) {
    char what[80];
    std::snprintf(what, sizeof(what),
                  "planner invocations identical: workers %d vs %d",
                  worker_counts[0], worker_counts[i]);
    ok &= claim(sessions[i].cache.misses == sessions[0].cache.misses, what);
  }

  double best_per_sec = 0;
  std::printf("\n%-10s %12s %14s %10s %10s %10s\n", "workers", "wall_ms",
              "req_per_sec", "p50_us", "p99_us", "misses");
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const double per_sec =
        sessions[i].wall_ms > 0
            ? static_cast<double>(count) * 1000.0 / sessions[i].wall_ms
            : 0;
    best_per_sec = std::max(best_per_sec, per_sec);
    std::printf("%-10d %12.2f %14.1f %10.1f %10.1f %10llu\n",
                worker_counts[i], sessions[i].wall_ms, per_sec,
                sessions[i].latency.percentile_us(50),
                sessions[i].latency.percentile_us(99),
                static_cast<unsigned long long>(sessions[i].cache.misses));
  }
  if (!quick) {
    // The acceptance floor.  Quick tier skips it: CI runs quick under
    // ThreadSanitizer, where wall time means something else entirely.
    ok &= claim(best_per_sec >= 100000.0,
                "sustained >= 100k plan requests/sec (full tier)");
  }

  std::vector<std::pair<std::string, double>> metrics;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const double per_sec =
        sessions[i].wall_ms > 0
            ? static_cast<double>(count) * 1000.0 / sessions[i].wall_ms
            : 0;
    metrics.push_back({"serve_plan_w" + std::to_string(worker_counts[i]) +
                           "_requests_per_sec",
                       per_sec});
  }
  metrics.push_back({"serve_p50_us", sessions[0].latency.percentile_us(50)});
  metrics.push_back({"serve_p95_us", sessions[0].latency.percentile_us(95)});
  metrics.push_back({"serve_p99_us", sessions[0].latency.percentile_us(99)});
  metrics.push_back(
      {"serve_distinct_signatures",
       static_cast<double>(sessions[0].cache.misses)});
  write_json(metrics, out, quick);
  std::printf("\nwrote %s\n", out.c_str());

  return ok ? 0 : 1;
}
