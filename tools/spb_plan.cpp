// spb_plan — cost-model broadcast planning CLI.
//
// Prices every registered algorithm on a problem through plan::Planner and
// emits the ranked table as JSON.  With --execute it then runs the
// predicted-best algorithm and emits the full run report with a "planner"
// provenance section.  With --replay N it drives a seeded stream of N
// mixed requests (distribution x sources x length drawn from a fixed pool,
// with in-bucket length jitter) through a one-shard plan::ShardedPlanCache
// — plan once, execute many — and reports the cache statistics.
//
//   spb_plan --machine paragon16x16 --dist B --sources 48 --len 6144
//   spb_plan --machine paragon8x8 --dist R --sources 8 --len 1024 --execute
//   spb_plan --machine paragon8x8 --replay 100 --seed 7 --execute
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "common/check.h"
#include "common/parse.h"
#include "dist/distribution.h"
#include "fault/fault.h"
#include "machine/config.h"
#include "machine/registry.h"
#include "obs/json.h"
#include "obs/report.h"
#include "plan/planner.h"
#include "plan/replay.h"
#include "plan/sharded_cache.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "stop/run.h"

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace): CLI main

struct Options {
  std::string machine = "paragon8x8";
  std::string dist = "R";
  int sources = 0;  // 0 = p/4 (at least 2), like spb_report
  Bytes len = 2048;
  std::uint64_t seed = 1;
  fault::SeededSpec faults;
  bool execute = false;
  int replay = 0;  // > 0 = replay mode with that many requests
  int cache_capacity =
      static_cast<int>(plan::ShardedPlanCache::kDefaultCapacity);
  std::string out;  // "" = stdout
};

/// Prints the usage and exits: to stdout with status 0 for --help, to
/// stderr with status 2 after a bad command line.
[[noreturn]] void usage(const char* argv0, int status = 2) {
  (status == 0 ? std::cout : std::cerr)
      << "usage: " << argv0 << " [options]\n"
      << "  --machine M        " << machine::Registry::instance().grammar()
      << "\n"
      << "                     (default paragon8x8; list = catalogue)\n"
      << "  --dist D           R C E Dr Dl B Cr Sq Rand (default R)\n"
      << "  --sources N        source count (default p/4, min 2)\n"
      << "  --len N            message length L in bytes (default 2048)\n"
      << "  --seed N           distribution / replay seed (default 1)\n"
      << "  --faults [SEED:]SPEC   fault spec; refines the plan signature\n"
      << "                     and is applied when executing\n"
      << "  --execute          run the predicted-best algorithm too\n"
      << "  --replay N         plan a seeded stream of N mixed requests\n"
      << "                     through the plan cache\n"
      << "  --cache-capacity N plan cache capacity (default 1024)\n"
      << "  --out FILE         write the JSON here (default stdout)\n"
      << "  --list             print algorithm and distribution names\n";
  std::exit(status);
}

Options parse(int argc, char** argv) {
  Options o;
  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") usage(argv[0], 0);
    if (a == "--machine") {
      o.machine = next(i);
    } else if (a == "--dist") {
      o.dist = next(i);
    } else if (a == "--sources") {
      o.sources = parse_int_or_throw("--sources", next(i));
    } else if (a == "--len") {
      o.len = static_cast<Bytes>(parse_u64_or_throw("--len", next(i)));
    } else if (a == "--seed") {
      o.seed = parse_u64_or_throw("--seed", next(i));
    } else if (a == "--faults") {
      o.faults = fault::parse_seeded(next(i), "--faults ([SEED:]SPEC)",
                                     o.faults.seed);
    } else if (a == "--execute") {
      o.execute = true;
    } else if (a == "--replay") {
      o.replay = parse_int_or_throw("--replay", next(i));
      SPB_REQUIRE(o.replay >= 1, "--replay wants at least one request");
    } else if (a == "--cache-capacity") {
      o.cache_capacity = parse_int_or_throw("--cache-capacity", next(i));
    } else if (a == "--out") {
      o.out = next(i);
    } else if (a == "--list") {
      std::cout << "algorithms:\n";
      for (const std::string& name : plan::CostModel::algorithms())
        std::cout << "  " << name << "\n";
      std::cout << "distributions:\n";
      for (const dist::Kind k : dist::all_kinds())
        std::cout << "  " << dist::kind_name(k) << "\n";
      std::exit(0);
    } else {
      std::cerr << "unknown option " << a << "\n";
      usage(argv[0]);
    }
  }
  return o;
}

std::string signature_hex(const plan::Signature& sig) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, sig.key());
  return buf;
}

void write_plan_json(std::ostream& os, const machine::MachineConfig& machine,
                     const std::string& dist_name, int s, Bytes len,
                     std::uint64_t seed, const plan::Plan& plan) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("machine", std::string_view(machine.name));
  w.field("p", machine.p);
  w.field("distribution", std::string_view(dist_name));
  w.field("sources", s);
  w.field("message_bytes", static_cast<std::uint64_t>(len));
  w.field("seed", seed);
  w.field("signature", std::string_view(signature_hex(plan.signature)));
  w.field("planned_bytes", static_cast<std::uint64_t>(plan.planned_bytes));
  w.field("best", std::string_view(plan.best()));
  w.key("ranked");
  w.begin_array();
  for (const plan::Plan::Entry& e : plan.ranked) {
    w.begin_object();
    w.field("algorithm", std::string_view(e.algorithm));
    w.field("predicted_us", e.predicted_us, 3);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

obs::PlannerSection planner_section(const plan::Plan& plan, bool cache_hit,
                                    const plan::CacheStats& stats) {
  obs::PlannerSection ps;
  ps.signature = signature_hex(plan.signature);
  ps.planned_bytes = plan.planned_bytes;
  ps.cache_hit = cache_hit;
  ps.cache_hits = stats.hits;
  ps.cache_misses = stats.misses;
  ps.cache_evictions = stats.evictions;
  ps.ranked.reserve(plan.ranked.size());
  for (const plan::Plan::Entry& e : plan.ranked)
    ps.ranked.push_back({e.algorithm, e.predicted_us});
  return ps;
}

/// Plans one problem; with --execute also runs the predicted best and
/// emits the run report (with planner provenance) instead of the bare
/// plan.
void run_single(std::ostream& os, const Options& opt,
                const machine::MachineConfig& machine,
                const plan::Planner& planner) {
  const dist::Kind kind = dist::kind_from_name(opt.dist);
  int s = opt.sources;
  if (s == 0) s = std::max(2, machine.p / 4);
  const stop::Problem problem =
      stop::make_problem(machine, kind, s, opt.len, opt.seed);

  plan::ShardedPlanCache cache(static_cast<std::size_t>(opt.cache_capacity),
                              /*shards=*/1);
  const plan::Plan plan = cache.plan(planner, problem.sources, opt.len,
                                     opt.dist, opt.faults.text);

  if (!opt.execute) {
    write_plan_json(os, machine, opt.dist, s, opt.len, opt.seed, plan);
    return;
  }

  const stop::AlgorithmPtr algorithm = stop::find_algorithm(plan.best());
  const stop::RunResult result = stop::run(
      *algorithm, problem,
      stop::RunConfig{}.trace().link_stats().faults(opt.faults.spec,
                                                    opt.faults.seed));

  obs::ReportContext ctx;
  ctx.algorithm = algorithm->name();
  ctx.machine = machine.name;
  ctx.distribution = dist::kind_name(kind);
  ctx.sources = s;
  ctx.message_bytes = opt.len;
  ctx.p = machine.p;
  ctx.seed = opt.seed;
  ctx.faults = opt.faults.text;

  const obs::PlannerSection ps =
      planner_section(plan, /*cache_hit=*/false, cache.stats());
  obs::write_run_report(os, ctx, result, machine.topology.get(), &ps);
}

/// Replays the seeded request stream through the plan cache: every request
/// is planned (cache hit or miss), and with --execute the predicted-best
/// algorithm is also run.  Emits aggregate JSON.
void run_replay(std::ostream& os, const Options& opt,
                const machine::MachineConfig& machine,
                const plan::Planner& planner) {
  plan::ReplayStream stream(machine.p, opt.seed);
  plan::ShardedPlanCache cache(static_cast<std::size_t>(opt.cache_capacity),
                              /*shards=*/1);

  std::map<std::string, int> picks;  // algorithm -> times chosen
  double executed_us = 0;
  int executed_runs = 0;
  for (int i = 0; i < opt.replay; ++i) {
    const plan::ReplayRequest r = stream.next();
    const stop::Problem problem = stop::make_problem(
        machine, r.kind, r.sources, r.len, r.dist_seed);
    const plan::Plan plan = cache.plan(planner, problem.sources, r.len,
                                       std::string(dist::kind_name(r.kind)),
                                       opt.faults.text);
    ++picks[plan.best()];
    if (opt.execute) {
      const stop::AlgorithmPtr algorithm = stop::find_algorithm(plan.best());
      const stop::RunResult result = stop::run(
          *algorithm, problem,
          stop::RunConfig{}.faults(opt.faults.spec, opt.faults.seed));
      executed_us += result.time_us;
      ++executed_runs;
    }
  }

  const plan::CacheStats stats = cache.stats();
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("machine", std::string_view(machine.name));
  w.field("p", machine.p);
  w.field("seed", opt.seed);
  w.field("requests", static_cast<std::uint64_t>(opt.replay));
  w.key("cache");
  w.begin_object();
  w.field("capacity", static_cast<std::uint64_t>(cache.capacity()));
  w.field("size", static_cast<std::uint64_t>(cache.size()));
  w.field("hits", stats.hits);
  w.field("misses", stats.misses);
  w.field("evictions", stats.evictions);
  w.field("hit_rate", stats.hit_rate(), 4);
  w.end_object();
  w.key("picks");
  w.begin_object();
  for (const auto& [name, count] : picks)
    w.field(name, static_cast<std::uint64_t>(count));
  w.end_object();
  w.field("executed", opt.execute);
  if (opt.execute) {
    w.field("executed_runs", static_cast<std::uint64_t>(executed_runs));
    w.field("executed_total_us", executed_us, 3);
  }
  w.end_object();
  os << "\n";
}

int run_cli(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.machine == "list") {
    std::cout << machine::Registry::instance().describe();
    return 0;
  }
  const machine::MachineConfig machine = machine::from_name(opt.machine);
  const plan::Planner planner(machine);

  std::ofstream file;
  if (!opt.out.empty()) {
    file.open(opt.out);
    SPB_REQUIRE(file.good(), "cannot write to '" << opt.out << "'");
  }
  std::ostream& os = opt.out.empty() ? std::cout : file;

  if (opt.replay > 0) {
    run_replay(os, opt, machine, planner);
  } else {
    run_single(os, opt, machine, planner);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad CLI input (unknown machine/algorithm/distribution) surfaces as
  // CheckError; report it like a usage error instead of aborting.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "spb_plan: " << e.what() << "\n";
    return 2;
  }
}
