#include "options.h"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/check.h"
#include "common/parse.h"
#include "machine/registry.h"
#include "sweep_runner.h"
#include "util.h"

namespace spb::bench {

machine::MachineConfig Options::machine_or(
    const machine::MachineConfig& fallback) const {
  return machine.has_value() ? machine::from_name(*machine) : fallback;
}

dist::Kind Options::dist_or(dist::Kind fallback) const {
  return dist.has_value() ? dist::kind_from_name(*dist) : fallback;
}

std::string usage_text(const std::string& argv0, const ParseSpec& spec) {
  std::ostringstream os;
  os << "usage: " << argv0 << " [options]";
  if (spec.allow_positional && !spec.positional_help.empty())
    os << " " << spec.positional_help;
  os << "\n";
  if (!spec.description.empty()) os << "  " << spec.description << "\n";
  os << "  --machine M   " << machine::Registry::instance().grammar() << "\n"
     << "  --dist D      R C E Dr Dl B Cr Sq Rand\n"
     << "  --sources N   source count\n"
     << "  --len N       message length in bytes\n"
     << "  --seed N      distribution seed\n"
     << "  --jobs N      worker threads (0 = all cores; default "
     << "SPB_BENCH_JOBS or 1)\n"
     << "  --out PATH    output file/directory\n";
  for (const ExtraFlag& f : spec.extras) {
    std::string left = "  " + f.name + (f.value != nullptr ? " V" : "");
    while (left.size() < 16) left += ' ';
    os << left << f.help << "\n";
  }
  os << "  --help        this summary\n"
     << "Swept axes (the figure's x-axis) ignore their override flag.\n";
  return os.str();
}

std::string parse_options_into(int argc, const char* const* argv,
                               const ParseSpec& spec, Options& out) {
  out = Options{};
  out.jobs = default_jobs();
  bool have_positional = false;
  const auto next = [&](int& i, const std::string& flag,
                        std::string& value) -> std::string {
    if (i + 1 >= argc) return flag + " needs a value";
    value = argv[++i];
    return "";
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    std::string err;
    if (a == "--help" || a == "-h") return "help";
    if (a == "--machine") {
      if (!(err = next(i, a, v)).empty()) return err;
      out.machine = v;
    } else if (a == "--dist") {
      if (!(err = next(i, a, v)).empty()) return err;
      out.dist = v;
    } else if (a == "--sources") {
      int n = 0;
      if (!(err = next(i, a, v)).empty()) return err;
      if (!try_parse_int(v, n, err))
        return "bad --sources value '" + v + "': " + err;
      out.sources = n;
    } else if (a == "--len") {
      std::uint64_t n = 0;
      if (!(err = next(i, a, v)).empty()) return err;
      if (!try_parse_u64(v, n, err))
        return "bad --len value '" + v + "': " + err;
      out.len = static_cast<Bytes>(n);
    } else if (a == "--seed") {
      std::uint64_t n = 0;
      if (!(err = next(i, a, v)).empty()) return err;
      if (!try_parse_u64(v, n, err))
        return "bad --seed value '" + v + "': " + err;
      out.seed = n;
    } else if (a == "--jobs") {
      int n = 0;
      if (!(err = next(i, a, v)).empty()) return err;
      if (!try_parse_int(v, n, err))
        return "bad --jobs value '" + v + "': " + err;
      out.jobs = n == 0 ? SweepRunner::hardware_jobs() : n;
      out.jobs_set = true;
    } else if (a == "--out") {
      if (!(err = next(i, a, v)).empty()) return err;
      out.out = v;
    } else {
      bool matched = false;
      for (const ExtraFlag& f : spec.extras) {
        if (a != f.name) continue;
        matched = true;
        if (f.value != nullptr) {
          if (!(err = next(i, a, v)).empty()) return err;
          *f.value = v;
        }
        if (f.toggle != nullptr) *f.toggle = true;
        break;
      }
      if (matched) continue;
      if (spec.allow_positional && !a.empty() && a[0] != '-' &&
          !have_positional) {
        out.positional = a;
        have_positional = true;
        continue;
      }
      return "unknown option '" + a + "'";
    }
  }
  return "";
}

Options parse_options(int argc, char** argv, const ParseSpec& spec) {
  Options out;
  const std::string err = parse_options_into(argc, argv, spec, out);
  if (err == "help") {
    std::cout << usage_text(argv[0], spec);
    std::exit(0);
  }
  if (out.machine.has_value() && *out.machine == "list") {
    std::cout << machine::Registry::instance().describe();
    std::exit(0);
  }
  if (!err.empty()) {
    std::cerr << argv[0] << ": " << err << "\n"
              << usage_text(argv[0], spec);
    std::exit(2);
  }
  return out;
}

}  // namespace spb::bench
