// The data-driven machine registry behind machine::from_name and every
// CLI's --machine flag.
//
// Each registered family carries its CLI name pattern, a one-line
// description, a concrete example spec and the parser that builds the
// MachineConfig.  spb_plan, spb_report, spb_serve, spb_check and the
// bench CLI all consume this one table, so the grammar, the `--machine
// list` catalogue and the unknown-spec error are defined in exactly one
// place (the catalogue is golden-pinned in tests/machine/registry_test.cpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "machine/config.h"

namespace spb::machine {

/// One registered machine family.
struct MachineSpec {
  /// CLI grammar of the family, e.g. "paragonRxC".
  std::string pattern;
  /// One-line description for the `--machine list` catalogue.
  std::string description;
  /// A concrete spec that must round-trip through from_name.
  std::string example;
  /// Literal prefix a spec of this family starts with ("paragon").
  std::string prefix;
  /// Parses a full spec (the prefix is guaranteed to match).  Throws
  /// CheckError with a precise message on malformed parameters.
  std::function<MachineConfig(const std::string& spec)> parse;
};

class Registry {
 public:
  /// The registry of all built-in machine families.
  static const Registry& instance();

  const std::vector<MachineSpec>& entries() const { return entries_; }

  /// Parses a spec; throws CheckError enumerating the registered patterns
  /// when no family matches.
  MachineConfig parse(const std::string& spec) const;

  /// Multi-line human-readable catalogue: the shared `--machine list`
  /// output.
  std::string describe() const;

  /// One-line grammar summary for CLI usage text:
  /// "paragonRxC | t3dP[:SEED] | ... | list".
  std::string grammar() const;

 private:
  Registry();

  std::vector<MachineSpec> entries_;
};

}  // namespace spb::machine
