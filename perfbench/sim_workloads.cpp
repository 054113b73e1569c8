// sim_sweep and sim_large: closed loops of full, verified stop::run calls
// on one thread.
//
// sim_sweep runs the figure-style grid (many small, short-message runs:
// per-run set-up, mailbox matching and payload merge dominate); sim_large
// repeats a few large runs (deep queues, long routes, link contention:
// the event queue and route + reserve dominate).  Each pass runs every
// combo once in a seeded order; pass digests must repeat and, at the
// default seed, equal the pinned digest.
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"
#include "inputs.h"
#include "machine/config.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "stats.h"
#include "stop/run.h"

namespace perfbench {

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace): bench main

// Digests of one pass at kDefaultSeed: makespan and Figure-2 metrics of
// every combo, in canonical combo order.
constexpr std::uint64_t kPinnedSweepDigest = 0xdc7ae6ff918b5e6bULL;
constexpr std::uint64_t kPinnedLargeDigest = 0xa7d5619c2385a75aULL;

/// What tells the two workloads apart, decided once from --workload.
struct SimWorkload {
  bool large = false;
  std::vector<Combo> combos;
  std::uint64_t pinned_digest = 0;
};

SimWorkload sim_workload(const Args& args) {
  if (args.workload == "sim_large")
    return {true, sim_large_combos(args.seed), kPinnedLargeDigest};
  return {false, sim_sweep_combos(args.seed), kPinnedSweepDigest};
}

struct Prepared {
  std::vector<Combo> combos;
  std::vector<std::size_t> order;
  std::map<std::string, machine::MachineConfig> machines;
  std::map<std::string, stop::AlgorithmPtr> algorithms;
  /// Per combo, resolved once so the timed loop does no lookups.
  std::vector<const machine::MachineConfig*> machine_of;
  std::vector<const stop::Algorithm*> algorithm_of;
  stop::RunOptions clean;
  stop::RunOptions faulted;
};

/// What one run contributes to the digest and the per-layer counts.
struct Outcome {
  SimTime makespan = 0;
  mp::RunMetrics metrics;
  net::NetworkStats network;
  std::uint64_t events = 0;
  std::size_t peak_queue_depth = 0;
};

Outcome summarize_outcome(const mp::RunOutcome& o) {
  return {o.makespan_us, o.metrics, o.network, o.events, o.peak_queue_depth};
}

std::uint64_t outcome_digest(const Outcome& o) {
  Digest d;
  d.add_double(o.makespan);
  const mp::RunMetrics& m = o.metrics;
  d.add_u64(m.congestion);
  d.add_u64(m.max_waits);
  d.add_u64(m.max_send_recv);
  d.add_double(m.av_msg_lgth);
  d.add_double(m.av_act_proc);
  d.add_u64(m.iterations);
  d.add_u64(m.total_sends);
  d.add_u64(m.total_recvs);
  d.add_u64(m.total_bytes_sent);
  d.add_u64(m.retransmits);
  return d.value();
}

Prepared prepare(const std::vector<Combo>& combos, std::uint64_t seed,
                 Tracer& tr, const Layers& layers) {
  Prepared p;
  p.combos = combos;
  p.order = run_order(p.combos.size(), seed);
  for (const Combo& c : p.combos) {
    if (p.machines.count(c.machine) == 0) {
      Span span(tr, layers.machine_from_name);
      p.machines.emplace(c.machine, machine::from_name(c.machine));
    }
    if (p.algorithms.count(c.algorithm) == 0)
      p.algorithms.emplace(c.algorithm, stop::find_algorithm(c.algorithm));
  }
  for (const Combo& c : p.combos) {
    p.machine_of.push_back(&p.machines.at(c.machine));
    p.algorithm_of.push_back(p.algorithms.at(c.algorithm).get());
  }
  p.faulted = stop::RunConfig{}.faults(fault::FaultSpec::parse(kAdverseFaults),
                                       kAdverseFaultSeed);
  return p;
}

/// One timed job: generate the sources, build the problem, run it.
Outcome run_job(const Prepared& p, std::size_t i, Tracer& tr,
                const Layers& layers) {
  const Combo& c = p.combos[i];
  const machine::MachineConfig& mc = *p.machine_of[i];
  Span job(tr, layers.job, i);
  std::vector<Rank> sources;
  {
    Span span(tr, layers.dist_generate);
    sources = dist::generate(c.kind, dist::Grid{mc.rows, mc.cols}, c.sources,
                             c.dist_seed);
  }
  stop::Problem pb;
  {
    Span span(tr, layers.stop_make_problem);
    pb = stop::make_problem(mc, std::move(sources), c.len);
  }
  Span span(tr, layers.stop_run);
  return summarize_outcome(
      stop::run(*p.algorithm_of[i], pb, c.faulted ? p.faulted : p.clean)
          .outcome);
}

/// The set-up a user of the workload pays before the first timed job:
/// machines, algorithm lookups, and one warm-up run per machine.
Prepared setup(const Args& args, const SimWorkload& w, Tracer& tr,
               const Layers& layers, double& seconds) {
  const std::int64_t t0 = now_ns();
  Prepared p = prepare(w.combos, args.seed, tr, layers);
  std::map<std::string, std::size_t> first;
  for (std::size_t i = 0; i < p.combos.size(); ++i)
    first.emplace(p.combos[i].machine, i);
  const bool was = tr.enabled();
  tr.set_enabled(false);
  for (const auto& [name, i] : first) run_job(p, i, tr, layers);
  tr.set_enabled(was);
  seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return p;
}

struct Pass {
  double seconds = 0;
  std::uint64_t digest = 0;
  std::vector<Outcome> outcomes;  // canonical combo order
  /// Traced pass only: per-job best total ns with spans on and off.
  double traced_ns = 0;
  double untraced_ns = 0;
};

void seal(Pass& pass, std::int64_t t0) {
  pass.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  Digest d;
  for (const Outcome& o : pass.outcomes) d.add_u64(outcome_digest(o));
  pass.digest = d.value();
}

/// Runs every combo once in the seeded order.
Pass run_pass(const Prepared& p, Tracer& tr, const Layers& layers,
              std::vector<double>& latencies_us, Result& r) {
  Pass pass;
  pass.outcomes.resize(p.combos.size());
  const std::int64_t t0 = now_ns();
  for (const std::size_t i : p.order) {
    ++r.attempted;
    const std::int64_t j0 = now_ns();
    try {
      pass.outcomes[i] = run_job(p, i, tr, layers);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail(describe(p.combos[i]) + ": " + e.what());
    }
    latencies_us.push_back(static_cast<double>(now_ns() - j0) / 1000.0);
  }
  seal(pass, t0);
  return pass;
}

/// Times each of run_traced_pass's jobs this many times per mode.
constexpr int kTwinRuns = 3;

/// The traced pass: every job runs six times back to back, with spans
/// off, on, on, off, off, on.  Each mode's time is the lowest of its three
/// runs, so neither mode always inherits the other's warm caches and a
/// burst of host noise costs one sample, not the comparison.
Pass run_traced_pass(const Prepared& p, Tracer& tr, const Layers& layers,
                     std::vector<double>& latencies_us, Result& r) {
  Pass pass;
  pass.outcomes.resize(p.combos.size());
  const std::int64_t t0 = now_ns();
  for (const std::size_t i : p.order) {
    ++r.attempted;
    try {
      double best[2] = {1e300, 1e300};  // untraced, traced
      for (int run = 0; run < 2 * kTwinRuns; ++run) {
        const bool traced = run % 4 == 1 || run % 4 == 2;
        tr.set_enabled(traced);
        const std::int64_t j0 = now_ns();
        const Outcome o = run_job(p, i, tr, layers);
        const auto ns = static_cast<double>(now_ns() - j0);
        best[traced ? 1 : 0] = std::min(best[traced ? 1 : 0], ns);
        if (run == 0)
          pass.outcomes[i] = o;
        else if (outcome_digest(o) != outcome_digest(pass.outcomes[i]))
          r.fail(describe(p.combos[i]) + ": repeated runs differ");
      }
      pass.untraced_ns += best[0];
      pass.traced_ns += best[1];
      latencies_us.push_back(best[1] / 1000.0);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail(describe(p.combos[i]) + ": " + e.what());
    }
  }
  tr.set_enabled(true);
  seal(pass, t0);
  return pass;
}

void check_digests(const Args& args, const SimWorkload& w,
                   const std::vector<Pass>& passes, Result& r) {
  bool repeat = true;
  for (const Pass& pass : passes) repeat &= pass.digest == passes[0].digest;
  r.check(repeat, "every pass reproduces the first pass's digest (" +
                      std::to_string(passes.size()) + " passes)");
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(passes[0].digest));
  if (args.seed != kDefaultSeed) {
    std::fprintf(stderr, "  digest %s (pinned only for seed %llu)\n", hex,
                 static_cast<unsigned long long>(kDefaultSeed));
    return;
  }
  r.check(passes[0].digest == w.pinned_digest,
          std::string("makespan + Figure-2 digest ") + hex +
              " equals the pinned digest");
}

// --- per-layer probes (traced run only) ---------------------------------

/// Replays `events` pushes through a fresh EventQueue held at `peak`
/// pending events, dispatching every pop; returns the elapsed ns.
double queue_replay_ns(std::uint64_t events, std::size_t peak) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  auto next_gap = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<SimTime>((lcg >> 40) & 0xffff) * 0.01;
  };
  const std::int64_t t0 = now_ns();
  std::uint64_t pushed = 0;
  for (; pushed < events && pushed < peak; ++pushed)
    q.push(next_gap(), [&sink] { ++sink; });
  while (!q.empty()) {
    sim::Event e = q.pop();
    e.fn();
    if (pushed < events) {
      q.push(e.time + next_gap(), [&sink] { ++sink; });
      ++pushed;
    }
  }
  const auto ns = static_cast<double>(now_ns() - t0);
  if (sink != events) throw std::logic_error("queue replay lost events");
  return ns;
}

/// Replays the trace's transfers, in send order, through a fresh
/// NetworkModel on the machine's topology and mapping; returns the
/// elapsed ns and the number of reserves.
double reserve_replay_ns(const machine::MachineConfig& mc,
                         const mp::Trace& trace, std::uint64_t& reserves) {
  std::vector<const mp::TraceEvent*> sends;
  for (const mp::TraceEvent& e : trace.events())
    if (e.kind == mp::TraceEvent::Kind::kSend ||
        e.kind == mp::TraceEvent::Kind::kRetransmit)
      sends.push_back(&e);
  std::stable_sort(sends.begin(), sends.end(),
                   [](const mp::TraceEvent* a, const mp::TraceEvent* b) {
                     return a->begin_us < b->begin_us;
                   });
  net::NetworkModel model(mc.topology, mc.net);
  const std::int64_t t0 = now_ns();
  for (const mp::TraceEvent* e : sends)
    model.reserve(mc.mapping.node_of(e->rank), mc.mapping.node_of(e->peer),
                  e->wire_bytes, e->begin_us);
  reserves += sends.size();
  return static_cast<double>(now_ns() - t0);
}

double timed_run_ns(const stop::Algorithm& alg, const stop::Problem& pb,
                    const stop::RunOptions& opts) {
  const std::int64_t t0 = now_ns();
  stop::run(alg, pb, opts);
  return static_cast<double>(now_ns() - t0);
}

/// Sharded-engine probe result of one (machine, sim_threads) run, passed
/// from the child process that ran it.
struct ProbeRun {
  int status = 2;  // 0 ok, 1 threw (spurious DeadlockError, ...), 2 died
  double seconds = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t windows = 0;
  std::uint64_t idle_shard_windows = 0;
  std::uint64_t staged_xfers = 0;
  std::uint64_t shards = 0;
};

std::uint64_t fingerprint(const mp::RunOutcome& o) {
  Digest d;
  d.add_u64(outcome_digest(summarize_outcome(o)));
  d.add_u64(o.network.transfers);
  d.add_u64(o.network.total_hops);
  d.add_double(o.network.total_link_busy_us);
  d.add_double(o.network.max_link_busy_us);
  d.add_double(o.network.total_stall_us);
  for (const double b : o.link_busy_us) d.add_double(b);
  d.add_u64(o.events);
  const mp::ParallelStats& par = o.par;
  d.add_u64(static_cast<std::uint64_t>(par.shards));
  d.add_u64(par.windows);
  d.add_u64(par.idle_shard_windows);
  d.add_u64(par.staged_xfers);
  d.add_u64(par.held_xfers);
  for (const auto& s : par.per_shard) {
    d.add_u64(s.events);
    d.add_u64(s.peak_queue_depth);
    d.add_u64(s.busy_windows);
    d.add_u64(s.idle_windows);
  }
  return d.value();
}

/// Runs one simulation in a child process, so that a crash or hang of the
/// sharded engine costs one probe, never the benchmark.
ProbeRun probe_in_child(const stop::Algorithm& alg, const stop::Problem& pb,
                        int threads) {
  ProbeRun out;
  int fds[2];
  if (pipe(fds) != 0) return out;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return out;
  }
  if (pid == 0) {
    close(fds[0]);
    ProbeRun r;
    try {
      const std::int64_t t0 = now_ns();
      const stop::RunResult res =
          stop::run(alg, pb, stop::RunConfig{}.sim_threads(threads));
      r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
      r.fingerprint = fingerprint(res.outcome);
      r.windows = res.outcome.par.windows;
      r.idle_shard_windows = res.outcome.par.idle_shard_windows;
      r.staged_xfers = res.outcome.par.staged_xfers;
      r.shards = static_cast<std::uint64_t>(res.outcome.par.shards);
      r.status = 0;
    } catch (...) {
      r.status = 1;
    }
    const ssize_t written = write(fds[1], &r, sizeof(r));
    _exit(written == static_cast<ssize_t>(sizeof(r)) ? 0 : 1);
  }
  close(fds[1]);
  pollfd pfd{fds[0], POLLIN, 0};
  constexpr int kTimeoutMs = 60000;
  if (poll(&pfd, 1, kTimeoutMs) > 0) {
    ProbeRun r;
    if (read(fds[0], &r, sizeof(r)) == static_cast<ssize_t>(sizeof(r)))
      out = r;
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, WNOHANG) == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
  }
  return out;
}

/// Speedup S = T_serial / T_p and efficiency E = S / p of the sharded
/// engine on the three machines its keep-or-delete rule names, with each
/// RunOutcome fingerprint compared against the sim_threads = 1 run.
void sharded_probe(const Args& args, const Prepared& p, Result& r) {
  const int n_threads =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  const std::string t3d = "t3d512:" + std::to_string(t3d_mapping_seed(args.seed));
  double log_s2 = 0, log_sn = 0;
  int timed = 0;
  std::uint64_t aborts = 0, mismatches = 0, windows = 0, staged = 0;
  double idle = 0, slots = 0;
  for (const std::string& name : {t3d, std::string("torus16x16x16"),
                                   std::string("cluster16x16")}) {
    const machine::MachineConfig& mc = p.machines.at(name);
    const stop::AlgorithmPtr alg = p.algorithms.at("Br_Lin");
    const stop::Problem pb = stop::make_problem(
        mc, dist::Kind::kRandom, mc.p / 4, 65536, args.seed + 1);
    const ProbeRun serial = probe_in_child(*alg, pb, 0);
    const ProbeRun t1 = probe_in_child(*alg, pb, 1);
    const ProbeRun t2 = probe_in_child(*alg, pb, 2);
    const ProbeRun tn = probe_in_child(*alg, pb, n_threads);
    for (const ProbeRun* run : {&t1, &t2, &tn}) {
      if (run->status != 0) {
        ++aborts;
        continue;
      }
      if (t1.status == 0 && run->fingerprint != t1.fingerprint) ++mismatches;
    }
    std::fprintf(stderr,
                 "  sharded %s: serial %.4f s, t1 %.4f s, t2 %.4f s, t%d "
                 "%.4f s (status %d/%d/%d/%d)\n",
                 name.c_str(), serial.seconds, t1.seconds, t2.seconds,
                 n_threads, tn.seconds, serial.status, t1.status, t2.status,
                 tn.status);
    if (t1.status == 0) {
      windows += t1.windows;
      staged += t1.staged_xfers;
    }
    if (tn.status == 0) {
      idle += static_cast<double>(tn.idle_shard_windows);
      slots += static_cast<double>(tn.windows * tn.shards);
    }
    if (serial.status == 0 && t2.status == 0 && tn.status == 0) {
      log_s2 += std::log(serial.seconds / t2.seconds);
      log_sn += std::log(serial.seconds / tn.seconds);
      ++timed;
    }
  }
  const double s2 = timed == 0 ? 0 : std::exp(log_s2 / timed);
  const double sn = timed == 0 ? 0 : std::exp(log_sn / timed);
  r.values["sim.sharded.speedup_t2"] = s2;
  r.values["sim.sharded.speedup_tN"] = sn;
  r.values["sim.sharded.efficiency_tN"] = sn / n_threads;
  r.values["sim.sharded.idle_frac"] = slots > 0 ? idle / slots : 0;
  r.values["sim.sharded.windows"] = static_cast<double>(windows);
  r.values["sim.sharded.staged_xfers"] = static_cast<double>(staged);
  r.values["sim.sharded.aborts"] = static_cast<double>(aborts);
  r.values["sim.sharded.mismatches"] = static_cast<double>(mismatches);
  std::fprintf(stderr,
               "  sharded probe (N = %d): geomean speedup t2 %.3f, tN %.3f; "
               "%llu aborts, %llu fingerprint mismatches (probe failures, "
               "not benchmark failures)\n",
               n_threads, s2, sn, static_cast<unsigned long long>(aborts),
               static_cast<unsigned long long>(mismatches));
}

void record_counts(const Pass& pass, Result& r) {
  double events = 0, peak = 0, transfers = 0, hops = 0, stall = 0, sends = 0,
         recvs = 0, waits = 0, retransmits = 0, detours = 0;
  for (const Outcome& o : pass.outcomes) {
    events += static_cast<double>(o.events);
    peak = std::max(peak, static_cast<double>(o.peak_queue_depth));
    transfers += static_cast<double>(o.network.transfers);
    hops += static_cast<double>(o.network.total_hops);
    stall += o.network.total_stall_us;
    sends += static_cast<double>(o.metrics.total_sends);
    recvs += static_cast<double>(o.metrics.total_recvs);
    waits += static_cast<double>(o.metrics.max_waits);
    retransmits += static_cast<double>(o.metrics.retransmits);
    detours += static_cast<double>(o.network.detours);
  }
  r.values["sim.events"] = events;
  r.values["sim.peak_queue_depth"] = peak;
  r.values["net.transfers"] = transfers;
  r.values["net.hops"] = hops;
  r.values["net.stall_us"] = stall;
  r.values["mp.sends"] = sends;
  r.values["mp.recvs"] = recvs;
  r.values["mp.waits"] = waits;
  r.values["fault.retransmits"] = retransmits;
  r.values["fault.detours"] = detours;
}

/// Replays, verification cost and shares on every `stride`-th combo.
void attribution_probe(const Prepared& p, const Pass& traced,
                       std::size_t stride, Tracer& tr, const Layers& layers,
                       Result& r) {
  double verify_ns = 0, no_verify_ns = 0, queue_ns = 0, reserve_ns = 0;
  std::uint64_t events = 0, reserves = 0;
  for (std::size_t i = 0; i < p.combos.size(); i += stride) {
    const Combo& c = p.combos[i];
    const machine::MachineConfig& mc = *p.machine_of[i];
    const stop::Problem pb = stop::make_problem(
        mc, dist::generate(c.kind, dist::Grid{mc.rows, mc.cols}, c.sources,
                           c.dist_seed),
        c.len);
    stop::RunOptions opts = c.faulted ? p.faulted : p.clean;
    // Runs with verification on, off, off, on; each mode keeps its faster
    // run, so host noise on one run cannot flip the comparison.
    double best[2] = {1e300, 1e300};  // verify off, on
    for (int run = 0; run < 4; ++run) {
      opts.verify = run == 0 || run == 3;
      double& b = best[opts.verify ? 1 : 0];
      b = std::min(b, timed_run_ns(*p.algorithm_of[i], pb, opts));
    }
    no_verify_ns += best[0];
    verify_ns += best[1];
    opts.trace = true;
    const stop::RunResult traced_run = stop::run(*p.algorithm_of[i], pb, opts);
    {
      Span span(tr, layers.net_reserve_replay, i);
      reserve_ns += reserve_replay_ns(mc, traced_run.trace, reserves);
    }
    {
      Span span(tr, layers.sim_queue_replay, i);
      const Outcome& o = traced.outcomes[i];
      queue_ns += queue_replay_ns(o.events, o.peak_queue_depth);
      events += o.events;
    }
  }
  const double queue_share = queue_ns / verify_ns;
  const double reserve_share = reserve_ns / verify_ns;
  r.values["stop.verify_share"] = 1.0 - no_verify_ns / verify_ns;
  r.values["sim.queue_replay_ns"] = queue_ns / static_cast<double>(events);
  r.values["sim.queue_share"] = queue_share;
  r.values["net.reserve_replay_ns"] =
      reserves == 0 ? 0 : reserve_ns / static_cast<double>(reserves);
  r.values["net.reserve_share"] = reserve_share;
  r.values["mp.runtime_share"] = 1.0 - queue_share - reserve_share;
}

}  // namespace

Result run_sim(const Args& args, Tracer& tr) {
  Result r;
  const Layers layers(tr);
  const SimWorkload w = sim_workload(args);

  if (!args.trace) {
    double first_s = 0;
    const Prepared p = setup(args, w, tr, layers, first_s);
    SetupSamples setups([&] {
      double s = 0;
      setup(args, w, tr, layers, s);
      return s;
    });
    setups.add(first_s);
    setups.sample(kSetupFirstS);
    std::vector<Pass> passes;
    std::vector<double> latencies;
    const std::int64_t t0 = now_ns();
    double last = 0;
    do {
      passes.push_back(run_pass(p, tr, layers, latencies, r));
      last = passes.back().seconds;
      setups.sample(kSetupShare * last);
    } while (passes.size() < 2 ||
             static_cast<double>(now_ns() - t0) / 1e9 + last <= args.seconds);
    check_digests(args, w, passes, r);
    const Summary lat = summarize(latencies);
    const Segmented seg = segmented(latencies, p.combos.size());
    const BestOf best = best_of_passes(latencies, p.order);
    r.values["setup_s"] = setups.value();
    r.values["jobs_per_s"] = best.jobs_per_s;
    r.values["peak_rss_mb"] = peak_rss_mb();
    std::fprintf(stderr,
                 "  %zu passes of %zu runs; run latency %s; median over %zu "
                 "segments: p50 %.3f us, p99 %.3f us\n",
                 passes.size(), p.combos.size(), lat.to_string("us").c_str(),
                 seg.segments, seg.p50, seg.p99);
    return r;
  }

  tr.set_enabled(true);
  double setup_s = 0;
  const Prepared p = setup(args, w, tr, layers, setup_s);
  std::vector<double> latencies;
  tr.reserve(8 * kTwinRuns * p.combos.size());
  tr.calibrate();
  const std::size_t mark = tr.mark();
  const std::vector<Pass> passes = {
      run_traced_pass(p, tr, layers, latencies, r)};
  check_digests(args, w, passes, r);
  const Pass& traced = passes.back();
  r.values["job.p50_us"] = best_of_passes(latencies, p.order).p50_us;
  r.values["job.p99_us"] = segmented(latencies, p.combos.size()).p99;

  const auto self = tr.self_times(mark);
  const double n = static_cast<double>(p.combos.size());
  const double runs = n * kTwinRuns;  // traced runs behind the spans
  reconcile(r, traced.untraced_ns / n, traced.traced_ns / n,
            module_self_ns(self) / runs,
            tr.span_cost_ns() * static_cast<double>(tr.mark() - mark) / runs,
            /*gate=*/w.large);
  const auto mean_us = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.mean_self_us();
  };
  r.values["dist.generate_us"] = mean_us("dist.generate");
  r.values["stop.make_problem_us"] = mean_us("stop.make_problem");
  r.values["stop.run_us"] = mean_us("stop.run");
  record_counts(traced, r);
  r.values["sim.host_ns_per_event"] =
      self.at("stop.run").self_ns / kTwinRuns / r.values["sim.events"];

  attribution_probe(p, traced, w.large ? 1 : 8, tr, layers, r);
  if (w.large) sharded_probe(args, p, r);
  r.values["machine.from_name_us"] =
      tr.self_times().at("machine.from_name").mean_self_us();
  return r;
}

}  // namespace perfbench
