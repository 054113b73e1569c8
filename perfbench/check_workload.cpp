// check_sweep: a closed loop on one thread over the two static schedule
// checkers.  Each job records one schedule (analyze::record_run) and then
// either analyzes it (analyze::analyze_schedule, on {paragon4x4,
// paragon8x8, t3d64} x 19 algorithms x 9 distributions) or certifies it
// through the model checker's layers (verify::check_match_graph,
// check_deadlock_free, extract_structure, explore — what
// verify::certify_schedule runs — on ext_verify's <= 16-rank shapes).
// Every clean schedule must pass with zero violations, and the seeded
// drop-send, tag-mismatch and cyclic-wait mutants must be rejected by both
// checkers.
#include <cstdio>

#include "analyze/checks.h"
#include "analyze/mutate.h"
#include "analyze/record.h"
#include "bench.h"
#include "inputs.h"
#include "machine/config.h"
#include "stats.h"
#include "verify/certificate.h"

namespace perfbench {

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace): bench main

struct Prepared {
  std::vector<Combo> combos;
  std::vector<std::size_t> order;
  std::map<std::string, machine::MachineConfig> machines;
  std::map<std::string, stop::AlgorithmPtr> algorithms;
};

Prepared prepare(std::uint64_t seed, Tracer& tr, const Layers& layers) {
  Prepared p;
  p.combos = check_combos(seed);
  p.order = run_order(p.combos.size(), seed);
  for (const Combo& c : p.combos) {
    if (p.machines.count(c.machine) == 0) {
      Span span(tr, layers.machine_from_name);
      p.machines.emplace(c.machine, machine::from_name(c.machine));
    }
    if (p.algorithms.count(c.algorithm) == 0)
      p.algorithms.emplace(c.algorithm, stop::find_algorithm(c.algorithm));
  }
  return p;
}

struct JobResult {
  bool clean = false;
  std::uint64_t states = 0;
};

JobResult run_job(const Prepared& p, std::size_t i, Tracer& tr,
                  const Layers& layers) {
  const Combo& c = p.combos[i];
  const machine::MachineConfig& mc = p.machines.at(c.machine);
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
  analyze::RecordedRun run;
  {
    Span span(tr, layers.analyze_record);
    run = analyze::record_run(*p.algorithms.at(c.algorithm), pb);
  }
  JobResult out;
  if (!c.certify) {
    Span span(tr, layers.analyze_check);
    out.clean = run.completed &&
                analyze::analyze_schedule(run.schedule, pb).ok();
    return out;
  }
  verify::MatchCheck match;
  verify::DeadlockCheck deadlock;
  verify::Structure structure;
  verify::ExploreResult explored;
  {
    Span span(tr, layers.verify_match);
    match = verify::check_match_graph(run.schedule);
  }
  {
    Span span(tr, layers.verify_deadlock);
    deadlock = verify::check_deadlock_free(run.schedule);
  }
  {
    Span span(tr, layers.verify_structure);
    structure = verify::extract_structure(run.schedule, pb.sources);
  }
  {
    Span span(tr, layers.verify_explore);
    explored = verify::explore(run.schedule, structure);
  }
  // verify::certify_schedule's verdict.
  out.clean = run.completed && match.ok() && deadlock.ok() &&
              structure.ok() && explored.deterministic;
  out.states = explored.states;
  return out;
}

struct Pass {
  double seconds = 0;
  std::uint64_t states = 0;
};

Pass run_pass(const Prepared& p, Tracer& tr, const Layers& layers,
              std::vector<double>& latencies_us, Result& r) {
  Pass pass;
  const std::int64_t t0 = now_ns();
  for (const std::size_t i : p.order) {
    const std::int64_t j0 = now_ns();
    ++r.attempted;
    JobResult jr;
    try {
      jr = run_job(p, i, tr, layers);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail(describe(p.combos[i]) + ": " + e.what());
    }
    latencies_us.push_back(static_cast<double>(now_ns() - j0) / 1000.0);
    if (!jr.clean) {
      r.fail(describe(p.combos[i]) + ": clean schedule not " +
             (p.combos[i].certify ? "certified" : "free of violations"));
    }
    pass.states += jr.states;
  }
  pass.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return pass;
}

/// The traced pass: every job runs twice back to back, with spans off and
/// on, alternating which runs first, so that host drift and warm caches
/// fall on both modes alike.  Adds each mode's total ns to `untraced_ns`
/// and `traced_ns`; `latencies_us` gets the traced times.
Pass run_twin_pass(const Prepared& p, Tracer& tr, const Layers& layers,
                   std::vector<double>& latencies_us, double& untraced_ns,
                   double& traced_ns, Result& r) {
  Pass pass;
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < p.order.size(); ++k) {
    const std::size_t i = p.order[k];
    ++r.attempted;
    bool clean = true;
    try {
      for (int run = 0; run < 2; ++run) {
        const bool traced = (run == 0) == (k % 2 == 0);
        tr.set_enabled(traced);
        const std::int64_t j0 = now_ns();
        const JobResult jr = run_job(p, i, tr, layers);
        const auto ns = static_cast<double>(now_ns() - j0);
        clean &= jr.clean;
        if (traced) {
          traced_ns += ns;
          latencies_us.push_back(ns / 1000.0);
          pass.states += jr.states;
        } else {
          untraced_ns += ns;
        }
      }
    } catch (const std::exception& e) {
      ++r.failed;
      clean = false;
      r.fail(describe(p.combos[i]) + ": " + e.what());
    }
    if (!clean)
      r.fail(describe(p.combos[i]) + ": clean schedule not " +
             (p.combos[i].certify ? "certified" : "free of violations"));
  }
  tr.set_enabled(false);
  pass.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return pass;
}

/// The seeded mutants of a 2-Step schedule on paragon4x4 must be rejected
/// by both checkers.  The mutation seed stays at ext_verify's 1:
/// apply_mutation(kDropSend) with seed 2 or 5 drops the schedule's last op,
/// and mp::Schedule::from_ops then reads its remap table one past the end
/// (heap-buffer-overflow under ASan, SIGSEGV in Release).
void check_mutants(const Prepared& p, Result& r) {
  constexpr std::uint64_t kMutationSeed = 1;
  const machine::MachineConfig& mc = p.machines.at("paragon4x4");
  const stop::Problem pb = stop::make_problem(mc, dist::Kind::kRow, 4, 2048);
  const analyze::RecordedRun run =
      analyze::record_run(*p.algorithms.at("2-Step"), pb);
  std::uint64_t violations = 0, rejected = 0;
  for (const analyze::Mutation m :
       {analyze::Mutation::kDropSend, analyze::Mutation::kTagMismatch,
        analyze::Mutation::kCyclicWait}) {
    const analyze::MutationResult mutant =
        analyze::apply_mutation(run.schedule, m, kMutationSeed);
    const analyze::AnalysisReport report =
        analyze::analyze_schedule(mutant.schedule, pb);
    const verify::Certificate cert =
        verify::certify_schedule(mutant.schedule, pb.sources);
    violations += report.violations.size();
    rejected += cert.certified ? 0 : 1;
    r.check(!report.ok() && !cert.certified,
            "mutant " + analyze::mutation_name(m) +
                " rejected by analyze and verify (" + mutant.description +
                ")");
  }
  r.values["analyze.violations"] = static_cast<double>(violations);
  r.values["verify.rejected"] = static_cast<double>(rejected);
}

Prepared setup(const Args& args, Tracer& tr, const Layers& layers,
               double& seconds) {
  const std::int64_t t0 = now_ns();
  Prepared p = prepare(args.seed, tr, layers);
  // Warm-up: one job per machine.
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

}  // namespace

Result run_check_sweep(const Args& args, Tracer& tr) {
  Result r;
  const Layers layers(tr);
  std::vector<double> latencies;

  if (!args.trace) {
    double first_s = 0;
    const Prepared p = setup(args, tr, layers, first_s);
    SetupSamples setups([&] {
      double s = 0;
      setup(args, tr, layers, s);
      return s;
    });
    setups.add(first_s);
    setups.sample(kSetupFirstS);
    std::vector<double> pass_s;
    const std::int64_t t0 = now_ns();
    do {
      pass_s.push_back(run_pass(p, tr, layers, latencies, r).seconds);
      setups.sample(kSetupShare * pass_s.back());
    } while (static_cast<double>(now_ns() - t0) / 1e9 + pass_s.back() <=
             args.seconds);
    check_mutants(p, r);
    const Summary lat = summarize(latencies);
    const Segmented seg = segmented(latencies, p.combos.size());
    const BestOf best = best_of_passes(latencies, p.order);
    r.values["setup_s"] = setups.value();
    r.values["jobs_per_s"] = best.jobs_per_s;
    r.values["peak_rss_mb"] = peak_rss_mb();
    std::fprintf(stderr,
                 "  %zu passes of %zu schedules; latency %s; median over %zu "
                 "segments: p50 %.3f us, p99 %.3f us\n",
                 pass_s.size(), p.combos.size(), lat.to_string("us").c_str(),
                 seg.segments, seg.p50, seg.p99);
    return r;
  }

  tr.set_enabled(true);
  double setup_s = 0;
  const Prepared p = setup(args, tr, layers, setup_s);
  tr.calibrate();
  const std::size_t mark = tr.mark();
  double untraced_ns = 0, traced_ns = 0, elapsed_s = 0;
  std::uint64_t states = 0;
  int passes = 0;
  do {
    const Pass pass = run_twin_pass(p, tr, layers, latencies, untraced_ns,
                                    traced_ns, r);
    elapsed_s += pass.seconds;
    states = pass.states;
    ++passes;
  } while (elapsed_s < args.seconds * 0.8);
  check_mutants(p, r);
  r.values["job.p50_us"] = best_of_passes(latencies, p.order).p50_us;
  r.values["job.p99_us"] = segmented(latencies, p.combos.size()).p99;

  const auto self = tr.self_times(mark);
  const double jobs = static_cast<double>(p.combos.size() * passes);
  reconcile(r, untraced_ns / jobs, traced_ns / jobs,
            module_self_ns(self) / jobs,
            tr.span_cost_ns() * static_cast<double>(tr.mark() - mark) / jobs,
            /*gate=*/false);
  const auto mean_us = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.mean_self_us();
  };
  for (const char* name :
       {"dist.generate", "stop.make_problem", "analyze.record",
        "analyze.check", "verify.match", "verify.deadlock",
        "verify.structure", "verify.explore"})
    r.values[std::string(name) + "_us"] = mean_us(name);
  r.values["verify.explore_states"] = static_cast<double>(states);
  r.values["machine.from_name_us"] =
      tr.self_times().at("machine.from_name").mean_self_us();
  return r;
}

}  // namespace perfbench
