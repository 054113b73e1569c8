// spb_report — one run, one JSON report.
//
// Runs any algorithm x distribution x machine combination with link
// accounting on, and emits a single machine-readable run report: timing,
// the paper's Figure-2 metrics, fault counters, the per-phase breakdown
// and a link-utilization histogram.  Optionally also records and exports
// the full Chrome-trace timeline (load it at https://ui.perfetto.dev) and
// prints an ASCII link heatmap.
//
//   spb_report --machine paragon8x8 --dist R --sources 8 --len 1024
//              --algo two_step --chrome-trace t.json
//   spb_report --machine t3d256 --dist Rand --sources 16 --len 4096
//              --algo Br_xy_source --faults 42:drop=0.05 --heatmap --out r.json
//
// (one command each, wrapped here).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "common/check.h"
#include "common/parse.h"
#include "dist/distribution.h"
#include "fault/fault.h"
#include "machine/config.h"
#include "machine/registry.h"
#include "obs/chrome_trace.h"
#include "obs/heatmap.h"
#include "obs/report.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "stop/run.h"

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace): CLI main

struct Options {
  std::string machine = "paragon8x8";
  std::string dist = "R";
  std::string algo = "2-Step";
  int sources = 0;  // 0 = p/4 (at least 2), like spb_check
  Bytes len = 2048;
  std::uint64_t seed = 1;
  fault::SeededSpec faults;
  std::string out;           // report path ("" = stdout)
  std::string chrome_trace;  // "" = no export
  bool heatmap = false;
};

/// Prints the usage and exits: to stdout with status 0 for --help, to
/// stderr with status 2 after a bad command line.
[[noreturn]] void usage(const char* argv0, int status = 2) {
  (status == 0 ? std::cout : std::cerr)
      << "usage: " << argv0 << " [options]\n"
      << "  --machine M      " << machine::Registry::instance().grammar()
      << "\n"
      << "                   (default paragon8x8; list = catalogue)\n"
      << "  --dist D         R C E Dr Dl B Cr Sq Rand (default R)\n"
      << "  --algo A         algorithm name, exact or normalized\n"
      << "                   (two_step = 2-Step; see --list; default 2-Step)\n"
      << "  --sources N      source count (default p/4, min 2)\n"
      << "  --len N          message length L in bytes (default 2048)\n"
      << "  --seed N         seed for the Rand distribution (default 1)\n"
      << "  --faults [SEED:]SPEC   deterministic fault injection\n"
      << "                   (e.g. 42:drop=0.1,straggle=1x3)\n"
      << "  --out FILE       write the JSON report here (default stdout)\n"
      << "  --chrome-trace FILE    also export the Perfetto/Chrome trace\n"
      << "  --heatmap        print an ASCII link heatmap to stderr\n"
      << "  --list           print algorithm and distribution names\n";
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
    } else if (a == "--algo") {
      o.algo = next(i);
    } else if (a == "--sources") {
      o.sources = parse_int_or_throw("--sources", next(i));
    } else if (a == "--len") {
      o.len = static_cast<Bytes>(parse_u64_or_throw("--len", next(i)));
    } else if (a == "--seed") {
      o.seed = parse_u64_or_throw("--seed", next(i));
    } else if (a == "--faults") {
      o.faults = fault::parse_seeded(next(i), "--faults ([SEED:]SPEC)",
                                     o.faults.seed);
    } else if (a == "--out") {
      o.out = next(i);
    } else if (a == "--chrome-trace") {
      o.chrome_trace = next(i);
    } else if (a == "--heatmap") {
      o.heatmap = true;
    } else if (a == "--list") {
      std::cout << "algorithms:\n";
      for (const auto& alg : stop::all_algorithms())
        std::cout << "  " << alg->name() << "\n";
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

int run_cli(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.machine == "list") {
    std::cout << machine::Registry::instance().describe();
    return 0;
  }

  const machine::MachineConfig machine = machine::from_name(opt.machine);
  const stop::AlgorithmPtr algorithm = stop::find_algorithm(opt.algo);
  const dist::Kind kind = dist::kind_from_name(opt.dist);
  int s = opt.sources;
  if (s == 0) s = std::max(2, machine.p / 4);
  const stop::Problem problem =
      stop::make_problem(machine, kind, s, opt.len, opt.seed);

  // The report never reads the trace, and tracing does not change the
  // run, so only the trace export records one.
  const stop::RunResult result = stop::run(
      *algorithm, problem,
      stop::RunConfig{}
          .link_stats()
          .faults(opt.faults.spec, opt.faults.seed)
          .trace(!opt.chrome_trace.empty()));

  obs::ReportContext ctx;
  ctx.algorithm = algorithm->name();
  ctx.machine = machine.name;
  ctx.distribution = dist::kind_name(kind);
  ctx.sources = s;
  ctx.message_bytes = opt.len;
  ctx.p = machine.p;
  ctx.seed = opt.seed;
  ctx.faults = opt.faults.text;

  if (opt.out.empty()) {
    obs::write_run_report(std::cout, ctx, result, machine.topology.get());
  } else {
    std::ofstream os(opt.out);
    SPB_REQUIRE(os.good(), "cannot write report to '" << opt.out << "'");
    obs::write_run_report(os, ctx, result, machine.topology.get());
  }

  if (!opt.chrome_trace.empty()) {
    std::ofstream os(opt.chrome_trace);
    SPB_REQUIRE(os.good(),
                "cannot write trace to '" << opt.chrome_trace << "'");
    obs::write_chrome_trace(os, result.trace, ctx.algorithm);
  }

  if (opt.heatmap) {
    std::cerr << obs::render_link_heatmap(*machine.topology,
                                          result.link_usage);
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
    std::cerr << "spb_report: " << e.what() << "\n";
    return 2;
  }
}
