// spb_check — the static schedule checker CLI.
//
// Records the symbolic send/recv schedule of every machine x algorithm x
// distribution combination (or of --random seeded problems) and checks it
// with src/analyze (default: matching re-derived from the filters,
// wait-for acyclicity, chunk coverage/provenance, round/volume bounds) or,
// with --certify, with the src/verify model checker (one determinism
// certificate per combination).
//
//   spb_check                    # full sweep: 4x4, 8x8 Paragon + 8x8x8 T3D
//   spb_check --machine paragon8x8 --algo Br_Lin --dist Cr --verbose
//   spb_check --mutate all --expect-rejection       # seeded-bug self-test
//   spb_check --certify          # every algorithm on paragon4x4, dist R
//   spb_check --certify --out certs.json --random 10 --seed 7
//
// Exits 0 when every combination passes, 1 otherwise, 2 on bad input;
// --expect-rejection inverts the verdict for mutation self-tests.
// --jobs N runs combinations on a thread pool and prints them in grid
// order, byte-identical to a serial run.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/mutate.h"
#include "common/check.h"
#include "common/parse.h"
#include "dist/distribution.h"
#include "fault/fault.h"
#include "machine/config.h"
#include "machine/registry.h"
#include "obs/json.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "sweep_runner.h"
#include "verify/sweep.h"

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
  std::string machine;  // empty: "all", or "paragon4x4" with --certify
  std::string algo = "all";
  std::string dist;     // empty: "all", or "R" with --certify
  std::vector<std::string> mutate;
  bool expect_rejection = false;
  int random = 0;
  std::string out;
  int jobs = 1;
  verify::SweepOptions sweep;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --certify      model-check and certify instead of analyzing\n"
      << "  --machine M    all (default; --certify: paragon4x4) | "
      << machine::Registry::instance().grammar() << "\n"
      << "  --algo A       algorithm name (see --list) | all\n"
      << "  --dist D       R C E Dr Dl B Cr Sq Rand | all (default;\n"
      << "                 --certify: R)\n"
      << "  --random N     N seeded random problems per machine and\n"
      << "                 algorithm instead of --dist\n"
      << "  --s N          source count (default p/4, min 2; at most p)\n"
      << "  --bytes N      message length L in bytes (default 2048)\n"
      << "  --seed N       seed for Rand, --mutate and --random\n"
      << "  --mutate M     drop-send | tag-mismatch | cyclic-wait |\n"
      << "                 dup-chunk (analyzer only) | all\n"
      << "  --expect-rejection   exit 0 iff every combo was rejected\n"
      << "  --faults [SEED:]SPEC   deterministic fault injection, e.g.\n"
      << "                 42:drop=0.1,links=0.25x4,straggle=1x3 (keys:\n"
      << "                 drop, dup, links=FRACxDIV, lat, straggle=NxF,\n"
      << "                 window, timeout, attempts); the analyzer's\n"
      << "                 checks must still pass under any plan\n"
      << "  --step-slack X / --volume-slack X   analyzer quality gates\n"
      << "  --max-states N lumped-state budget for --certify exploration\n"
      << "  --out PATH     write the --certify certificates as a JSON array\n"
      << "  --jobs N       worker threads (0 = all cores; default 1);\n"
      << "                 output is byte-identical for every N\n"
      << "  --list         print algorithm and distribution names\n"
      << "  --verbose      print the full report for every combo\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  verify::SweepOptions& s = o.sweep;
  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--certify") {
      s.certify = true;
    } else if (a == "--machine") {
      o.machine = next(i);
    } else if (a == "--algo") {
      o.algo = next(i);
    } else if (a == "--dist") {
      o.dist = next(i);
    } else if (a == "--random") {
      o.random = parse_int_or_throw("--random", next(i));
    } else if (a == "--s") {
      s.s = parse_int_or_throw("--s", next(i));
    } else if (a == "--bytes") {
      s.bytes = parse_u64_or_throw("--bytes", next(i));
      SPB_REQUIRE(s.bytes <= stop::kMaxMessageBytes,
                  "--bytes " << s.bytes << " exceeds the maximum "
                             << stop::kMaxMessageBytes);
    } else if (a == "--seed") {
      s.seed = parse_u64_or_throw("--seed", next(i));
    } else if (a == "--mutate") {
      o.mutate.push_back(next(i));
    } else if (a == "--expect-rejection") {
      o.expect_rejection = true;
    } else if (a == "--faults") {
      // "[SEED:]SPEC": an optional plan seed, then the comma-separated spec.
      std::string text = next(i);
      const std::size_t colon = text.find(':');
      if (colon != std::string::npos) {
        s.fault_seed =
            parse_u64_or_throw("fault seed in --faults ([SEED:]SPEC)",
                               text.substr(0, colon));
        text = text.substr(colon + 1);
      }
      s.faults = fault::FaultSpec::parse(text);
    } else if (a == "--step-slack") {
      s.analysis.max_step_slack =
          parse_double_or_throw("--step-slack", next(i));
    } else if (a == "--volume-slack") {
      s.analysis.max_volume_slack =
          parse_double_or_throw("--volume-slack", next(i));
    } else if (a == "--max-states") {
      s.explore.max_states = parse_u64_or_throw("--max-states", next(i));
    } else if (a == "--out") {
      o.out = next(i);
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
      s.verbose = true;
    } else {
      std::cerr << "unknown option " << a << "\n";
      usage(argv[0]);
    }
  }

  if (o.machine.empty()) o.machine = s.certify ? "paragon4x4" : "all";
  if (o.dist.empty()) o.dist = s.certify ? "R" : "all";
  SPB_REQUIRE(o.out.empty() || s.certify,
              "--out writes certificates; it needs --certify");
  SPB_REQUIRE(!s.faults.any() || !s.certify,
              "--faults applies to the analyzer, not to --certify");
  // dup-chunk is chunk algebra, not a delivery-order defect: the model
  // checker is scoped to the latter, so --certify leaves it out of `all`.
  for (const std::string& m : o.mutate) {
    for (const analyze::Mutation mut :
         m == "all" ? analyze::all_mutations()
                    : std::vector{analyze::mutation_from_name(m)}) {
      if (s.certify && mut == analyze::Mutation::kDuplicateChunk) {
        SPB_REQUIRE(m == "all",
                    "--mutate dup-chunk is chunk algebra, outside the model "
                    "checker's scope; the analyzer (no --certify) covers it");
        continue;
      }
      s.mutations.push_back(mut);
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

  std::vector<verify::SweepCombo> grid;
  for (const MachineChoice& mc : make_machines(opt.machine)) {
    for (const stop::AlgorithmPtr& alg : algorithms) {
      if (opt.random > 0) {
        for (int trial = 0; trial < opt.random; ++trial)
          grid.push_back({mc.key, mc.config, alg, dist::Kind::kRandom, trial});
        continue;
      }
      for (const dist::Kind kind : kinds)
        grid.push_back({mc.key, mc.config, alg, kind});
    }
  }

  // Each combination fills its own slot; printing in grid order afterwards
  // makes the output independent of the job count.
  std::vector<verify::ComboResult> results(grid.size());
  const bench::SweepRunner runner(opt.jobs);
  runner.run(grid.size(), [&](std::size_t i) {
    results[i] = verify::check_combo(grid[i], opt.sweep);
  });

  int combos = 0;
  int rejected = 0;
  for (const verify::ComboResult& r : results) {
    std::cout << r.text;
    combos += r.combos;
    rejected += r.rejected;
  }

  if (!opt.out.empty()) {
    std::ofstream os(opt.out);
    SPB_REQUIRE(os.good(), "cannot open --out file '" << opt.out << "'");
    obs::JsonWriter w(os);
    w.begin_array();
    for (const verify::ComboResult& r : results)
      for (const verify::Certificate& cert : r.certificates)
        verify::write_certificate(w, cert);
    w.end_array();
    os << "\n";
  }

  if (opt.expect_rejection) {
    const bool all_rejected = rejected == combos && combos > 0;
    std::cout << (all_rejected ? "self-test ok: " : "self-test FAILED: ")
              << rejected << "/" << combos << " combos rejected\n";
    return all_rejected ? 0 : 1;
  }
  if (opt.sweep.certify) {
    std::cout << combos - rejected << "/" << combos
              << " combinations certified\n";
  } else {
    std::cout << combos << " combinations analyzed, " << rejected
              << " with violations\n";
  }
  return rejected == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad CLI input (unknown machine/algorithm/distribution name, a bad
  // number) surfaces as CheckError; report it like a usage error instead
  // of aborting.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "spb_check: " << e.what() << "\n";
    return 2;
  }
}
