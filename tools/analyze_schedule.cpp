// analyze_schedule — static communication-schedule checker CLI.
//
// Records the symbolic send/recv schedule of every algorithm x source
// distribution x machine combination and runs the src/analyze static
// checks on it: send/recv matching, wait-for-graph acyclicity, chunk
// coverage/provenance, and round/volume bounds with link-conflict counts.
// Exits nonzero when any combination violates a check.
//
//   analyze_schedule                 # full sweep: 4x4, 8x8 Paragon + 8x8x8 T3D
//   analyze_schedule --jobs 8        # same sweep, 8 worker threads
//   analyze_schedule --machine paragon8x8 --algo Br_Lin --dist Cr
//   analyze_schedule --mutate drop-send   # seed a bug, expect a red report
//
// With --mutate, the recorded schedule is mutated before analysis; the
// checker must flag it (exit stays nonzero unless --expect-violations is
// given, which inverts the verdict for use as a self-test).
//
// Combinations are independent simulations, so --jobs N runs them on a
// thread pool; results are buffered per combination and printed in grid
// order, making the output byte-identical to a serial run.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/mutate.h"
#include "analyze/sweep.h"
#include "common/parse.h"
#include "dist/distribution.h"
#include "fault/fault.h"
#include "machine/config.h"
#include "machine/registry.h"
#include "stop/algorithm.h"
#include "sweep_runner.h"

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace): CLI main

struct MachineChoice {
  std::string key;
  machine::MachineConfig config;
};

std::vector<MachineChoice> make_machines(const std::string& filter) {
  std::vector<MachineChoice> all;
  all.push_back({"paragon4x4", machine::paragon(4, 4)});
  all.push_back({"paragon8x8", machine::paragon(8, 8)});
  all.push_back({"t3d512", machine::t3d(512)});
  if (filter == "all") return all;
  for (auto& m : all)
    if (m.key == filter) return {std::move(m)};
  // Any registered machine spec narrows the sweep to that one machine
  // (machine::Registry throws the pattern-enumerating error on junk).
  return {{filter, machine::from_name(filter)}};
}

struct Options {
  std::string machine = "all";
  std::string algo = "all";
  std::string dist = "all";
  int s = 0;  // 0 = p/4 (at least 2)
  Bytes bytes = 2048;
  std::uint64_t seed = 1;
  std::vector<analyze::Mutation> mutations;
  fault::FaultSpec faults;
  std::uint64_t fault_seed = 1;
  bool expect_violations = false;
  bool verbose = false;
  double step_slack = 0.0;
  double volume_slack = 0.0;
  int jobs = 1;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --machine M    all (default sweep) | "
      << machine::Registry::instance().grammar() << "\n"
      << "  --algo A       algorithm name (see --list) | all\n"
      << "  --dist D       R C E Dr Dl B Cr Sq Rand | all\n"
      << "  --s N          source count (default p/4, min 2)\n"
      << "  --bytes N      message length L in bytes (default 2048)\n"
      << "  --seed N       seed for Rand distribution and mutations\n"
      << "  --mutate M     drop-send | tag-mismatch | dup-chunk | all\n"
      << "  --faults [SEED:]SPEC   deterministic fault injection, e.g.\n"
      << "                 42:drop=0.1,links=0.25x4,straggle=1x3 (keys:\n"
      << "                 drop, dup, links=FRACxDIV, lat, straggle=NxF,\n"
      << "                 window, timeout, attempts); verification and the\n"
      << "                 static checks must still pass under any plan\n"
      << "  --expect-violations   exit 0 iff every combo was flagged\n"
      << "  --step-slack X / --volume-slack X   optional quality gates\n"
      << "  --jobs N       worker threads (0 = all cores; default 1);\n"
      << "                 output is byte-identical for every N\n"
      << "  --list         print algorithm and distribution names\n"
      << "  --verbose      print the full report for every combo\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--machine") {
      o.machine = next(i);
    } else if (a == "--algo") {
      o.algo = next(i);
    } else if (a == "--dist") {
      o.dist = next(i);
    } else if (a == "--s") {
      o.s = parse_int_or_throw("--s", next(i));
    } else if (a == "--bytes") {
      o.bytes = parse_u64_or_throw("--bytes", next(i));
    } else if (a == "--seed") {
      o.seed = parse_u64_or_throw("--seed", next(i));
    } else if (a == "--mutate") {
      const std::string m = next(i);
      if (m == "all") {
        o.mutations = analyze::all_mutations();
      } else {
        o.mutations.push_back(analyze::mutation_from_name(m));
      }
    } else if (a == "--faults") {
      // "[SEED:]SPEC": an optional plan seed, then the comma-separated spec.
      std::string text = next(i);
      const std::size_t colon = text.find(':');
      if (colon != std::string::npos) {
        o.fault_seed =
            parse_u64_or_throw("fault seed in --faults ([SEED:]SPEC)",
                               text.substr(0, colon));
        text = text.substr(colon + 1);
      }
      o.faults = fault::FaultSpec::parse(text);
    } else if (a == "--expect-violations") {
      o.expect_violations = true;
    } else if (a == "--step-slack") {
      o.step_slack = parse_double_or_throw("--step-slack", next(i));
    } else if (a == "--volume-slack") {
      o.volume_slack = parse_double_or_throw("--volume-slack", next(i));
    } else if (a == "--jobs") {
      o.jobs = parse_int_or_throw("--jobs", next(i));
      if (o.jobs == 0) o.jobs = bench::SweepRunner::hardware_jobs();
    } else if (a == "--list") {
      std::cout << "algorithms:\n";
      for (const auto& alg : stop::all_algorithms())
        std::cout << "  " << alg->name() << "\n";
      std::cout << "distributions:\n";
      for (const dist::Kind k : dist::all_kinds())
        std::cout << "  " << dist::kind_name(k) << "\n";
      std::exit(0);
    } else if (a == "--verbose") {
      o.verbose = true;
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

  std::vector<stop::AlgorithmPtr> algorithms;
  if (opt.algo == "all") {
    algorithms = stop::all_algorithms();
  } else {
    algorithms.push_back(stop::find_algorithm(opt.algo));
  }
  std::vector<dist::Kind> kinds;
  if (opt.dist == "all") {
    kinds = dist::all_kinds();
  } else {
    kinds.push_back(dist::kind_from_name(opt.dist));
  }

  analyze::SweepOptions sopt;
  sopt.s = opt.s;
  sopt.bytes = opt.bytes;
  sopt.seed = opt.seed;
  sopt.mutations = opt.mutations;
  sopt.faults = opt.faults;
  sopt.fault_seed = opt.fault_seed;
  sopt.verbose = opt.verbose;
  sopt.analysis.max_step_slack = opt.step_slack;
  sopt.analysis.max_volume_slack = opt.volume_slack;

  std::vector<analyze::SweepCombo> grid;
  for (const MachineChoice& mc : make_machines(opt.machine))
    for (const stop::AlgorithmPtr& alg : algorithms)
      for (const dist::Kind kind : kinds)
        grid.push_back({mc.key, mc.config, alg, kind});

  // Each combination fills its own slot; printing in grid order afterwards
  // makes the output independent of the job count.
  std::vector<analyze::ComboResult> results(grid.size());
  const bench::SweepRunner runner(opt.jobs);
  runner.run(grid.size(), [&](std::size_t i) {
    results[i] = analyze::analyze_combo(grid[i], sopt);
  });

  int combos = 0;
  int flagged = 0;
  for (const analyze::ComboResult& r : results) {
    std::cout << r.text;
    combos += r.combos;
    flagged += r.flagged;
  }

  if (opt.expect_violations) {
    const bool all_flagged = flagged == combos && combos > 0;
    std::cout << (all_flagged ? "self-test ok: " : "self-test FAILED: ")
              << flagged << "/" << combos << " combos flagged\n";
    return all_flagged ? 0 : 1;
  }
  std::cout << combos << " combinations analyzed, " << flagged
            << " with violations\n";
  return flagged == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad CLI input (unknown machine/algorithm/distribution name) surfaces as
  // CheckError; report it like a usage error instead of aborting.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "analyze_schedule: " << e.what() << "\n";
    return 2;
  }
}
