// spb_verify — schedule model-checker CLI.
//
// Records the symbolic schedule of algorithm x distribution combinations
// and runs the src/verify model-checker on each: recorded-match-graph
// validation, wait-for-graph acyclicity, pool/segment confluence, and
// exhaustive exploration of alternative delivery orders.  Prints one
// verdict line per combination and exits nonzero unless every combination
// is certified.
//
//   spb_verify --machine paragon4x4                  # all algorithms
//   spb_verify --algo 2-Step --dist R --s 4 --verbose
//   spb_verify --out certs.json                      # JSON certificates
//   spb_verify --mutate cyclic-wait --expect-rejection   # self-test
//   spb_verify --random 10 --seed 7                  # fuzzed problems
//
// With --mutate, the recorded schedule is broken on purpose before
// checking; --expect-rejection inverts the exit status so CI can assert
// the checker has no false negatives.  With --random N, N seeded random
// problems (source count and placement drawn from --seed) are certified
// per algorithm — the nightly property job points this at a failing
// seed's configuration.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/mutate.h"
#include "analyze/record.h"
#include "common/check.h"
#include "common/parse.h"
#include "common/rng.h"
#include "dist/distribution.h"
#include "machine/config.h"
#include "machine/registry.h"
#include "obs/json.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "verify/certificate.h"

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace): CLI main

struct Options {
  std::string machine = "paragon4x4";
  std::string algo = "all";
  std::string dist = "R";
  int s = 0;  // 0 = p/4 (at least 2)
  Bytes bytes = 2048;
  std::uint64_t seed = 1;
  std::vector<analyze::Mutation> mutations;
  bool expect_rejection = false;
  int random = 0;
  std::uint64_t max_states = 250'000;
  std::string out;
  bool verbose = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --machine M    " << machine::Registry::instance().grammar()
      << "\n"
      << "  --algo A       algorithm name | all\n"
      << "  --dist D       R C E Dr Dl B Cr Sq Rand\n"
      << "  --s N          source count (default p/4, min 2)\n"
      << "  --bytes N      message length L in bytes (default 2048)\n"
      << "  --seed N       seed for Rand distribution / --mutate / --random\n"
      << "  --mutate M     drop-send | tag-mismatch | dup-chunk |\n"
      << "                 cyclic-wait | all — break the schedule first\n"
      << "  --expect-rejection   exit 0 iff every combo was rejected\n"
      << "  --random N     certify N seeded random problems per algorithm\n"
      << "  --max-states N lumped-state budget for exploration\n"
      << "  --out PATH     write all certificates as a JSON array\n"
      << "  --verbose      print full reasons for every combo\n";
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
    } else if (a == "--expect-rejection") {
      o.expect_rejection = true;
    } else if (a == "--random") {
      o.random = parse_int_or_throw("--random", next(i));
    } else if (a == "--max-states") {
      o.max_states = parse_u64_or_throw("--max-states", next(i));
    } else if (a == "--out") {
      o.out = next(i);
    } else if (a == "--verbose") {
      o.verbose = true;
    } else {
      std::cerr << "unknown option " << a << "\n";
      usage(argv[0]);
    }
  }
  return o;
}

struct Tally {
  int combos = 0;
  int certified = 0;
  std::vector<verify::Certificate> certificates;
};

void report(const Options& opt, const stop::AlgorithmPtr& alg,
            const stop::Problem& problem, const std::string& label,
            verify::Certificate cert, Tally& tally) {
  cert.algorithm = alg->name();
  cert.machine = problem.machine.name;
  cert.message_bytes = problem.message_bytes;
  ++tally.combos;
  if (cert.certified) ++tally.certified;
  std::cout << label << cert.to_string() << "\n";
  if (opt.verbose && !cert.reasons.empty()) {
    for (const auto& r : cert.reasons) std::cout << "    " << r << "\n";
  }
  tally.certificates.push_back(std::move(cert));
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
  const machine::MachineConfig machine = machine::from_name(opt.machine);

  verify::CertifyOptions copt;
  copt.explore.max_states = opt.max_states;

  Tally tally;
  for (const stop::AlgorithmPtr& alg : algorithms) {
    if (opt.random > 0) {
      // Seeded random problems: source count in [2, p], Rand placement.
      for (int trial = 0; trial < opt.random; ++trial) {
        Rng rng(opt.seed + static_cast<std::uint64_t>(trial));
        const int s =
            2 + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(machine.p - 1)));
        const stop::Problem problem = stop::make_problem(
            machine, dist::Kind::kRandom, s, opt.bytes,
            opt.seed + static_cast<std::uint64_t>(trial));
        report(opt, alg, problem,
               "[trial " + std::to_string(trial) + "] ",
               verify::certify(*alg, problem, copt), tally);
      }
      continue;
    }

    const int s = opt.s > 0 ? opt.s : std::max(2, machine.p / 4);
    const stop::Problem problem = stop::make_problem(
        machine, dist::kind_from_name(opt.dist), s, opt.bytes, opt.seed);

    if (opt.mutations.empty()) {
      report(opt, alg, problem, "", verify::certify(*alg, problem, copt),
             tally);
      continue;
    }
    // Mutation self-test: record once, break the schedule, expect the
    // model-checker to reject every mutant.  Not every schedule has an
    // eligible op for every mutation (e.g. a fully wildcard program has
    // nothing to tag-mismatch); those combos are skipped, not failed.
    const analyze::RecordedRun run = analyze::record_run(*alg, problem);
    for (const analyze::Mutation m : opt.mutations) {
      analyze::MutationResult mutant;
      try {
        mutant = analyze::apply_mutation(run.schedule, m, opt.seed);
      } catch (const CheckError& e) {
        std::cout << "[" << analyze::mutation_name(m) << "] skipped "
                  << alg->name() << ": " << e.what() << "\n";
        continue;
      }
      verify::Certificate cert =
          verify::certify_schedule(mutant.schedule, problem.sources, copt);
      report(opt, alg, problem, "[" + analyze::mutation_name(m) + "] ",
             std::move(cert), tally);
    }
  }

  if (!opt.out.empty()) {
    std::ofstream os(opt.out);
    SPB_REQUIRE(os.good(), "cannot open --out file '" << opt.out << "'");
    obs::JsonWriter w(os);
    w.begin_array();
    for (const auto& cert : tally.certificates) {
      verify::write_certificate(w, cert);
    }
    w.end_array();
    os << "\n";
  }

  if (opt.expect_rejection) {
    const bool all_rejected = tally.certified == 0 && tally.combos > 0;
    std::cout << (all_rejected ? "self-test ok: " : "self-test FAILED: ")
              << tally.combos - tally.certified << "/" << tally.combos
              << " combos rejected\n";
    return all_rejected ? 0 : 1;
  }
  std::cout << tally.certified << "/" << tally.combos
            << " combinations certified\n";
  return tally.certified == tally.combos ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "spb_verify: " << e.what() << "\n";
    return 2;
  }
}
