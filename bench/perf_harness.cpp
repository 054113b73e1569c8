// perf_harness — dependency-free perf-regression harness.
//
// Times the simulator's hot paths (event queue, payload merge, route
// walks, one end-to-end run, and the analyzer sweep serial vs parallel)
// with plain steady_clock loops and emits the numbers as JSON.
// tools/bench_compare.py diffs the output against bench/BENCH_baseline.json
// with per-metric tolerances; CI runs the quick tier on every push.
//
//   perf_harness                      # full tier, writes BENCH_core.json
//   perf_harness out.json --quick     # CI tier (shorter timing windows)
//   perf_harness out.json --jobs 4    # thread count for the sweep metric
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dist/distribution.h"
#include "machine/config.h"
#include "mp/payload.h"
#include "net/topology.h"
#include "options.h"
#include "sim/event_queue.h"
#include "stop/algorithm.h"
#include "stop/run.h"
#include "sweep_runner.h"
#include "verify/sweep.h"

namespace {

using namespace spb;
using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Calls `body` repeatedly until `min_ms` of wall time has accumulated
/// (one untimed warm-up call first) and returns nanoseconds per operation,
/// where one call of `body` performs `ops_per_call` operations.
template <typename F>
double time_ns_per_op(double min_ms, std::uint64_t ops_per_call, F&& body) {
  body();  // warm-up: populate caches, settle allocations
  std::uint64_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double ms = 0;
  do {
    body();
    ++calls;
    ms = elapsed_ms(t0);
  } while (ms < min_ms);
  return ms * 1e6 / (static_cast<double>(calls) * ops_per_call);
}

struct Metrics {
  std::vector<std::pair<std::string, double>> values;
  void add(const std::string& name, double v) { values.push_back({name, v}); }
};

// One op = one push plus one pop+invoke at steady depth `depth`.
void bench_event_queue(Metrics& m, double min_ms) {
  constexpr int depth = 1024;
  constexpr int ops_per_call = 8192;
  std::uint64_t sum = 0;
  struct Delivery {
    std::uint64_t* sink;
    std::uint32_t slot;
    double at;
  };
  sim::EventQueue q;
  double now = 0;
  for (int i = 0; i < depth; ++i) {
    const Delivery d{&sum, static_cast<std::uint32_t>(i),
                     static_cast<double>((i * 7919) % 1000)};
    q.push(d.at, [d] { *d.sink += d.slot; });
  }
  const double ns = time_ns_per_op(min_ms, ops_per_call, [&] {
    for (int i = 0; i < ops_per_call; ++i) {
      sim::Event ev = q.pop();
      ev.fn();
      now = ev.time;
      const Delivery d{&sum, static_cast<std::uint32_t>(i), now + 1.0};
      q.push(d.at, [d] { *d.sink += d.slot; });
    }
  });
  m.add("event_queue_push_pop_ns", ns);
  m.add("event_queue_events_per_sec", 1e9 / ns);
  m.add("event_queue_depth", depth);
}

void bench_payload_merge(Metrics& m, double min_ms) {
  const auto steady_merge = [&](const mp::Payload& a, const mp::Payload& b) {
    mp::Payload acc;
    return time_ns_per_op(min_ms, 1, [&] {
      acc = a;
      acc.merge(b);
    });
  };
  {
    std::vector<mp::Chunk> even;
    std::vector<mp::Chunk> odd;
    for (int i = 0; i < 16; ++i) {
      even.push_back({2 * i, 64});
      odd.push_back({2 * i + 1, 64});
    }
    m.add("payload_merge_interleaved16_ns",
          steady_merge(mp::Payload::of(even), mp::Payload::of(odd)));
  }
  {
    std::vector<mp::Chunk> lo;
    std::vector<mp::Chunk> hi;
    for (int i = 0; i < 256; ++i) {
      lo.push_back({i, 64});
      hi.push_back({256 + i, 64});
    }
    m.add("payload_merge_disjoint256_ns",
          steady_merge(mp::Payload::of(lo), mp::Payload::of(hi)));
  }
}

void bench_routes(Metrics& m, double min_ms) {
  const net::Torus3D torus(8, 8, 8);
  constexpr int ops = 4096;
  {
    int a = 0;
    std::size_t hops = 0;
    m.add("route_fresh_ns", time_ns_per_op(min_ms, ops, [&] {
            for (int i = 0; i < ops; ++i) {
              const int b = (a * 31 + 17) % torus.node_count();
              hops += torus.route(a, b).size();
              a = (a + 1) % torus.node_count();
            }
          }));
    if (hops == 0) std::fprintf(stderr, "route_fresh: empty routes?\n");
  }
  {
    // What NetworkModel::reserve pays per message: a walk into one warm
    // buffer.
    std::vector<LinkId> path;
    int a = 0;
    std::size_t hops = 0;
    m.add("route_into_ns", time_ns_per_op(min_ms, ops, [&] {
            for (int i = 0; i < ops; ++i) {
              const int b = (a * 31 + 17) % torus.node_count();
              torus.route_into(a, b, path);
              hops += path.size();
              a = (a + 1) % torus.node_count();
            }
          }));
    if (hops == 0) std::fprintf(stderr, "route_into: empty routes?\n");
  }
}

void bench_end_to_end(Metrics& m, double min_ms) {
  const auto machine = machine::paragon(10, 10);
  const auto alg = stop::make_br_lin();
  const stop::Problem pb =
      stop::make_problem(machine, dist::Kind::kEqual, 30, 4096);
  stop::RunResult last;
  const double ns = time_ns_per_op(min_ms, 1, [&] {
    last = stop::run(*alg, pb);
  });
  m.add("end_to_end_brlin_wall_ms", ns / 1e6);
  m.add("end_to_end_brlin_events_per_sec",
        static_cast<double>(last.outcome.events) / (ns / 1e9));
  m.add("end_to_end_brlin_peak_queue_depth",
        static_cast<double>(last.outcome.peak_queue_depth));
}

void bench_end_to_end_parallel(Metrics& m, double min_ms) {
  // The acceptance combo of the sharded engine: t3d512 long-message
  // broadcast, serial loop vs the sharded conservative-window engine at 8
  // drain workers.  Both events/sec rates gate; the window-efficiency
  // numbers describe how much concurrency the windows actually exposed
  // (informational).  On a single-core host the parallel rate reflects
  // engine overhead, not scaling — the byte-identical-outcome contract is
  // what the concurrency tests pin down.
  const auto machine = machine::t3d(512);
  const auto alg = stop::make_br_lin();
  const stop::Problem pb =
      stop::make_problem(machine, dist::Kind::kRandom, 64, 65536, 5);

  stop::RunResult serial;
  const double serial_ns = time_ns_per_op(min_ms, 1, [&] {
    serial = stop::run(*alg, pb);
  });
  m.add("end_to_end_t3d_serial_events_per_sec",
        static_cast<double>(serial.outcome.events) / (serial_ns / 1e9));

  stop::RunResult par;
  const double par_ns = time_ns_per_op(min_ms, 1, [&] {
    par = stop::run(*alg, pb, stop::RunConfig{}.sim_threads(8));
  });
  m.add("end_to_end_t3d_par_events_per_sec",
        static_cast<double>(par.outcome.events) / (par_ns / 1e9));
  const mp::ParallelStats& ps = par.outcome.par;
  m.add("par_shards", static_cast<double>(ps.shards));
  m.add("par_windows", static_cast<double>(ps.windows));
  const std::uint64_t slots =
      ps.windows * static_cast<std::uint64_t>(ps.shards);
  m.add("par_window_busy_frac",
        slots == 0 ? 0.0
                   : 1.0 - static_cast<double>(ps.idle_shard_windows) /
                               static_cast<double>(slots));
}

void bench_sweep(Metrics& m, int jobs) {
  // The analyzer sweep over the 4x4 Paragon: every algorithm x every
  // distribution, exactly what `spb_check --machine paragon4x4` runs.
  // Timed once serial, once with `jobs` threads.
  std::vector<verify::SweepCombo> grid;
  const machine::MachineConfig machine = machine::paragon(4, 4);
  for (const stop::AlgorithmPtr& alg : stop::all_algorithms())
    for (const dist::Kind kind : dist::all_kinds())
      grid.push_back({"paragon4x4", machine, alg, kind});
  const verify::SweepOptions sopt;

  const auto timed_sweep = [&](int n_jobs) {
    std::vector<verify::ComboResult> results(grid.size());
    const bench::SweepRunner runner(n_jobs);
    const Clock::time_point t0 = Clock::now();
    runner.run(grid.size(), [&](std::size_t i) {
      results[i] = verify::check_combo(grid[i], sopt);
    });
    return elapsed_ms(t0);
  };

  m.add("sweep_combos", static_cast<double>(grid.size()));
  m.add("sweep_serial_ms", timed_sweep(1));
  m.add("sweep_jobs", jobs);
  m.add("sweep_parallel_ms", timed_sweep(jobs));
}

void write_json(const Metrics& m, const std::string& path, bool quick) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"quick\": %s,\n  \"metrics\": {\n",
               quick ? "true" : "false");
  for (std::size_t i = 0; i < m.values.size(); ++i)
    std::fprintf(f, "    \"%s\": %.4f%s\n", m.values[i].first.c_str(),
                 m.values[i].second,
                 i + 1 < m.values.size() ? "," : "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const bench::Options opt = bench::parse_options(
      argc, argv,
      {.description = "Perf-regression harness: emits BENCH_core.json "
                      "for tools/bench_compare.py",
       .extras = {{.name = "--quick",
                   .toggle = &quick,
                   .help = "short timing windows (CI smoke)"}},
       .allow_positional = true,
       .positional_help = "[out.json]"});
  const std::string out = opt.out_or(
      opt.positional.empty() ? "BENCH_core.json" : opt.positional);
  const int jobs =
      opt.jobs_set ? opt.jobs : bench::SweepRunner::hardware_jobs();
  const double min_ms = quick ? 20.0 : 200.0;

  Metrics m;
  bench_event_queue(m, min_ms);
  bench_payload_merge(m, min_ms);
  bench_routes(m, min_ms);
  bench_end_to_end(m, min_ms);
  bench_end_to_end_parallel(m, min_ms);
  bench_sweep(m, jobs);

  for (const auto& [name, value] : m.values)
    std::printf("%-36s %14.2f\n", name.c_str(), value);
  write_json(m, out, quick);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
