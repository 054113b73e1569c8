// spb_serve — the concurrent broadcast-planning service.
//
// Reads JSONL requests (see src/serve/protocol.h) from stdin or --in,
// serves them on a fixed worker pool over a sharded, coalescing plan
// cache, and writes one JSONL response per request in request order.
// Responses are pure functions of the request stream: the output is
// byte-identical for any --workers value on plan-only traffic.
//
//   spb_serve --machine paragon16x16 --workers 8 < requests.jsonl
//   spb_serve --demo 1000 --seed 7 --report serve_report.json
//   echo '{"op":"plan","dist":"B","sources":16,"len":6144}' | spb_serve
//
// --demo N skips stdin and drives N seeded plan requests from a fixed
// template pool (the spb_plan --replay stream, in wire form) — the
// self-contained smoke mode CI runs.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "common/check.h"
#include "common/parse.h"
#include "machine/config.h"
#include "machine/registry.h"
#include "obs/report.h"
#include "plan/replay.h"
#include "serve/server.h"

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace): CLI main

struct Options {
  serve::ServerOptions server;
  std::string in;      // "" = stdin
  std::string out;     // "" = stdout
  std::string report;  // "" = no report
  int demo = 0;        // > 0 = generate a seeded demo stream instead
  std::uint64_t seed = 1;
  bool shed = false;  // non-blocking admission (answer "overloaded")
};

/// Prints the usage and exits: to stdout with status 0 for --help, to
/// stderr with status 2 after a bad command line.
[[noreturn]] void usage(const char* argv0, int status = 2) {
  (status == 0 ? std::cout : std::cerr)
      << "usage: " << argv0 << " [options] < requests.jsonl\n"
      << "  --machine M         default machine for requests that do not\n"
      << "                      name one (default paragon8x8; list =\n"
      << "                      catalogue): "
      << machine::Registry::instance().grammar() << "\n"
      << "  --workers N         worker threads (default 4)\n"
      << "  --shards N          plan-cache shards (default 8)\n"
      << "  --cache-capacity N  plan-cache entries (default 4096)\n"
      << "  --max-queue N       pending-request bound (default 1024)\n"
      << "  --shed              answer \"overloaded\" when the queue is\n"
      << "                      full instead of blocking the reader (the\n"
      << "                      non-cooperative service semantics)\n"
      << "  --in FILE           read requests here instead of stdin\n"
      << "  --out FILE          write responses here instead of stdout\n"
      << "  --report FILE       write the serve report JSON here at exit\n"
      << "  --demo N            serve N seeded plan requests from the\n"
      << "                      built-in template pool (ignores stdin)\n"
      << "  --seed N            demo stream seed (default 1)\n";
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
      o.server.machine = next(i);
    } else if (a == "--workers") {
      o.server.workers = parse_int_or_throw("--workers", next(i));
    } else if (a == "--shards") {
      o.server.cache_shards = parse_u64_or_throw("--shards", next(i));
    } else if (a == "--cache-capacity") {
      o.server.cache_capacity =
          parse_u64_or_throw("--cache-capacity", next(i));
    } else if (a == "--max-queue") {
      o.server.max_queue = parse_u64_or_throw("--max-queue", next(i));
    } else if (a == "--in") {
      o.in = next(i);
    } else if (a == "--out") {
      o.out = next(i);
    } else if (a == "--report") {
      o.report = next(i);
    } else if (a == "--demo") {
      o.demo = parse_int_or_throw("--demo", next(i));
      SPB_REQUIRE(o.demo >= 1, "--demo wants at least one request");
    } else if (a == "--seed") {
      o.seed = parse_u64_or_throw("--seed", next(i));
    } else if (a == "--shed") {
      o.shed = true;
    } else {
      std::cerr << "unknown option " << a << "\n";
      usage(argv[0]);
    }
  }
  return o;
}

int run_cli(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.server.machine == "list") {
    std::cout << machine::Registry::instance().describe();
    return 0;
  }

  std::ofstream out_file;
  if (!opt.out.empty()) {
    out_file.open(opt.out);
    SPB_REQUIRE(out_file.good(), "cannot write to '" << opt.out << "'");
  }
  std::ostream& os = opt.out.empty() ? std::cout : out_file;

  const auto t0 = std::chrono::steady_clock::now();
  serve::Server server(opt.server, os);

  if (opt.demo > 0) {
    // The plan replay stream as wire requests, then a closing stats
    // barrier.
    plan::ReplayStream stream(machine::from_name(opt.server.machine).p,
                              opt.seed);
    for (int i = 0; i < opt.demo; ++i)
      server.submit_line_wait(plan::wire_line(stream.next()));
    server.submit_line_wait("{\"op\":\"stats\",\"deterministic\":true}");
  } else {
    std::ifstream in_file;
    if (!opt.in.empty()) {
      in_file.open(opt.in);
      SPB_REQUIRE(in_file.good(), "cannot read '" << opt.in << "'");
    }
    std::istream& is = opt.in.empty() ? std::cin : in_file;
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty()) continue;  // blank lines are keep-alives, not errors
      if (opt.shed)
        server.submit_line(line);
      else
        server.submit_line_wait(line);
    }
  }

  server.drain();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  if (!opt.report.empty()) {
    obs::ServeSection section = server.report_section();
    section.wall_ms = wall_ms;
    section.requests_per_sec =
        wall_ms > 0 ? static_cast<double>(server.submitted()) * 1000.0 /
                          wall_ms
                    : 0;
    std::ofstream report(opt.report);
    SPB_REQUIRE(report.good(), "cannot write to '" << opt.report << "'");
    obs::write_serve_report(report, section);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "spb_serve: " << e.what() << "\n";
    return 2;
  }
}
