// Micro-benchmarks of the simulator substrate (google-benchmark): event
// queue throughput, route construction, payload merging, halving-schedule
// construction, ideal-placement search, and a full end-to-end run.  These
// guard the simulator's own performance — the figure benches sweep
// hundreds of runs and stay fast because these stay fast.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "coll/halving.h"
#include "dist/ideal.h"
#include "mp/payload.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "stop/algorithm.h"
#include "stop/run.h"

namespace {

using namespace spb;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // Each event carries the runtime's typical delivery capture — a pointer
  // plus a slot index plus a timestamp — and is invoked on pop, exactly
  // like the simulator loop does.
  struct Delivery {
    std::uint64_t* sink;
    std::uint32_t slot;
    double at;
  };
  std::uint64_t sum = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      const Delivery d{&sum, static_cast<std::uint32_t>(i),
                       static_cast<double>((i * 7919) % 1000)};
      q.push(d.at, [d] { *d.sink += d.slot; });
    }
    while (!q.empty()) {
      sim::Event ev = q.pop();
      ev.fn();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_MeshRoute(benchmark::State& state) {
  const net::Mesh2D mesh(16, 16);
  int a = 0;
  for (auto _ : state) {
    const int b = (a * 31 + 17) % mesh.node_count();
    benchmark::DoNotOptimize(mesh.route(a, b));
    a = (a + 1) % mesh.node_count();
  }
}
BENCHMARK(BM_MeshRoute);

void BM_TorusRoute(benchmark::State& state) {
  const net::Torus3D torus(8, 8, 8);
  int a = 0;
  for (auto _ : state) {
    const int b = (a * 31 + 17) % torus.node_count();
    benchmark::DoNotOptimize(torus.route(a, b));
    a = (a + 1) % torus.node_count();
  }
}
BENCHMARK(BM_TorusRoute);

void BM_TorusRouteInto(benchmark::State& state) {
  // A walk into one warm buffer — what NetworkModel::reserve pays per
  // message.
  const net::Torus3D torus(8, 8, 8);
  std::vector<LinkId> path;
  int a = 0;
  for (auto _ : state) {
    const int b = (a * 31 + 17) % torus.node_count();
    torus.route_into(a, b, path);
    benchmark::DoNotOptimize(path.data());
    a = (a + 1) % torus.node_count();
  }
}
BENCHMARK(BM_TorusRouteInto);

void BM_PayloadMerge(benchmark::State& state) {
  const int chunks = static_cast<int>(state.range(0));
  std::vector<mp::Chunk> even;
  std::vector<mp::Chunk> odd;
  for (int i = 0; i < chunks; ++i) {
    even.push_back({2 * i, 64});
    odd.push_back({2 * i + 1, 64});
  }
  const mp::Payload a = mp::Payload::of(even);
  const mp::Payload b = mp::Payload::of(odd);
  // The accumulator lives across iterations, as a rank's payload lives
  // across its receives: after the first iteration the merge runs entirely
  // within settled capacity.  Even/odd interleave is the worst case for
  // the merge walk itself (no disjoint-range shortcut applies).
  mp::Payload m;
  for (auto _ : state) {
    m = a;
    m.merge(b);
    benchmark::DoNotOptimize(m.total_bytes());
  }
  state.SetItemsProcessed(state.iterations() * 2 * chunks);
}
BENCHMARK(BM_PayloadMerge)->Arg(16)->Arg(256);

void BM_PayloadMergeDisjoint(benchmark::State& state) {
  // Contiguous source ranges — the shape recursive halving produces on
  // nearly every receive; hits the append fast path.
  const int chunks = static_cast<int>(state.range(0));
  std::vector<mp::Chunk> lo;
  std::vector<mp::Chunk> hi;
  for (int i = 0; i < chunks; ++i) {
    lo.push_back({i, 64});
    hi.push_back({chunks + i, 64});
  }
  const mp::Payload a = mp::Payload::of(lo);
  const mp::Payload b = mp::Payload::of(hi);
  mp::Payload m;
  for (auto _ : state) {
    m = a;
    m.merge(b);
    benchmark::DoNotOptimize(m.total_bytes());
  }
  state.SetItemsProcessed(state.iterations() * 2 * chunks);
}
BENCHMARK(BM_PayloadMergeDisjoint)->Arg(256);

void BM_HalvingSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<char> active(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; i += 3) active[static_cast<std::size_t>(i)] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll::HalvingSchedule::compute(active).iterations());
  }
}
BENCHMARK(BM_HalvingSchedule)->Arg(100)->Arg(256);

void BM_ActivityProfile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<char> active(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; i += 5) active[static_cast<std::size_t>(i)] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll::HalvingSchedule::activity_profile(active).back());
  }
}
BENCHMARK(BM_ActivityProfile)->Arg(256);

void BM_IdealSearchUncached(benchmark::State& state) {
  // Unique (n, k) per iteration defeats the memo cache and measures the
  // greedy + hill-climb search itself.
  int n = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::ideal_positions(n, 7).size());
    ++n;
    if (n > 192) n = 64;
  }
}
BENCHMARK(BM_IdealSearchUncached)->Iterations(64);

void BM_EndToEndBrLin(benchmark::State& state) {
  const auto machine = machine::paragon(10, 10);
  const auto alg = stop::make_br_lin();
  const stop::Problem pb =
      stop::make_problem(machine, dist::Kind::kEqual, 30, 4096);
  for (auto _ : state) benchmark::DoNotOptimize(stop::run_ms(*alg, pb));
}
BENCHMARK(BM_EndToEndBrLin);

void BM_EndToEndPersAlltoAllT3D(benchmark::State& state) {
  const auto machine = machine::t3d(128);
  const auto alg = stop::make_pers_alltoall(true);
  const stop::Problem pb =
      stop::make_problem(machine, dist::Kind::kEqual, 64, 4096);
  for (auto _ : state) benchmark::DoNotOptimize(stop::run_ms(*alg, pb));
}
BENCHMARK(BM_EndToEndPersAlltoAllT3D);

}  // namespace

BENCHMARK_MAIN();
