// Unified CLI parser for every bench binary.
//
// The bench mains parse the same flag set through parse_options()
// (figures rejects the axis overrides: its table fixes every axis):
//
//   --machine M   any machine::Registry spec (paragonRxC, t3dP[:SEED],
//                 hypercubeD, torusK1xK2x..., clusterNxM); "list" prints
//                 the registry catalogue and exits
//   --dist D      R C E Dr Dl B Cr Sq Rand
//   --sources N   source count
//   --len N       message length in bytes
//   --jobs N      worker threads (0 = all cores); default from the
//                 SPB_BENCH_JOBS environment variable (see default_jobs())
//   --seed N      distribution seed
//   --out PATH    output file/directory (benches that write one)
//   --help        flag summary plus the bench's own description
//
// Benches sweep an axis (sources, message length, machines); the swept
// axis ignores its override flag, everything else takes effect where
// the bench has a single default.  Option values are held in
// std::optional, and the *_or() helpers fold in each bench's default:
//
//   int main(int argc, char** argv) {
//     const bench::Options opt = bench::parse_options(
//         argc, argv, {.description = "Figure 3: time vs source count"});
//     const auto machine = opt.machine_or(machine::paragon(10, 10));
//     const Bytes len = opt.len_or(4096);
//     ... opt.jobs ...
//   }
//
// Bench-specific flags (perf_harness's --quick) register as ExtraFlags and
// print in the same --help.  The parse core never exits and returns errors
// as text, so tests drive it directly; parse_options() is the exiting
// wrapper for main().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "dist/distribution.h"
#include "machine/config.h"

namespace spb::bench {

/// A bench-specific flag, e.g. {"--quick", &quick} or {"--base", &path}.
struct ExtraFlag {
  std::string name;
  bool* toggle = nullptr;         // set true when the flag appears
  std::string* value = nullptr;   // takes one value when non-null
  std::string help;
};

/// Parsed unified options; unset fields mean "use the bench's default".
struct Options {
  std::optional<std::string> machine;
  std::optional<std::string> dist;
  std::optional<int> sources;
  std::optional<Bytes> len;
  std::optional<std::uint64_t> seed;
  std::string out;         // --out (empty = bench default)
  std::string positional;  // first bare argument, when the spec allows one
  int jobs = 1;            // resolved: --jobs, else SPB_BENCH_JOBS, else 1
  bool jobs_set = false;   // --jobs appeared (perf_harness defaults to all
                           // cores when it did not)

  // Fold in the bench's default for unset flags.  machine_or/dist_or parse
  // the flag text (throwing CheckError on bad input).
  machine::MachineConfig machine_or(
      const machine::MachineConfig& fallback) const;
  dist::Kind dist_or(dist::Kind fallback) const;
  int sources_or(int fallback) const {
    return sources.has_value() ? *sources : fallback;
  }
  Bytes len_or(Bytes fallback) const {
    return len.has_value() ? *len : fallback;
  }
  std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed.has_value() ? *seed : fallback;
  }
  std::string out_or(const std::string& fallback) const {
    return out.empty() ? fallback : out;
  }
};

/// What a bench tells the parser about itself.  Benches name only the
/// fields they set; the `{}` initializers keep GCC's
/// -Wmissing-field-initializers quiet about the rest.
struct ParseSpec {
  std::string description;  // one line under "usage:" in --help
  std::vector<ExtraFlag> extras{};
  bool allow_positional = false;
  std::string positional_help{};  // e.g. "[out.json]"
};

/// Non-exiting parse core: fills `out`, returns "" on success or an error
/// message ("help" when --help was requested).  Unit-tested directly.
std::string parse_options_into(int argc, const char* const* argv,
                               const ParseSpec& spec, Options& out);

/// Usage text for the spec (what --help prints).
std::string usage_text(const std::string& argv0, const ParseSpec& spec);

/// Exiting wrapper for bench main()s: prints usage and exits on --help
/// (status 0) or a parse error (status 2).
Options parse_options(int argc, char** argv, const ParseSpec& spec = {});

}  // namespace spb::bench
