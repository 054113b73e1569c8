#include "stop/problem.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace spb::stop {

Bytes Problem::bytes_of_source(std::size_t source_index) const {
  SPB_REQUIRE(source_index < sources.size(), "source index out of range");
  if (per_source_bytes.empty()) return message_bytes;
  return per_source_bytes[source_index];
}

void Problem::validate() const {
  SPB_REQUIRE(machine.p >= 1, "machine must have at least one processor");
  SPB_REQUIRE(machine.rows * machine.cols == machine.p,
              "logical grid " << machine.rows << "x" << machine.cols
                              << " does not cover p=" << machine.p);
  SPB_REQUIRE(!sources.empty(), "need at least one source");
  SPB_REQUIRE(static_cast<int>(sources.size()) <= machine.p,
              "more sources than processors");
  SPB_REQUIRE(std::is_sorted(sources.begin(), sources.end()),
              "sources must be sorted");
  SPB_REQUIRE(
      std::adjacent_find(sources.begin(), sources.end()) == sources.end(),
      "sources must be distinct");
  SPB_REQUIRE(sources.front() >= 0 && sources.back() < machine.p,
              "source rank out of range");
  SPB_REQUIRE(message_bytes > 0, "message length must be positive");
  SPB_REQUIRE(message_bytes <= kMaxMessageBytes,
              "message length " << message_bytes << " exceeds the maximum "
                                << kMaxMessageBytes << " bytes");
  if (!per_source_bytes.empty()) {
    SPB_REQUIRE(per_source_bytes.size() == sources.size(),
                "per-source lengths must align with the source list");
    for (const Bytes b : per_source_bytes)
      SPB_REQUIRE(b > 0 && b <= kMaxMessageBytes,
                  "per-source message length " << b << " is outside [1, "
                                               << kMaxMessageBytes << "]");
  }
}

Problem make_problem(machine::MachineConfig machine, dist::Kind kind, int s,
                     Bytes message_bytes, std::uint64_t seed) {
  const dist::Grid grid{machine.rows, machine.cols};
  Problem pb;
  pb.machine = std::move(machine);
  pb.sources = dist::generate(kind, grid, s, seed);
  pb.message_bytes = message_bytes;
  pb.validate();
  return pb;
}

Problem make_problem(machine::MachineConfig machine,
                     std::vector<Rank> sources, Bytes message_bytes) {
  std::sort(sources.begin(), sources.end());
  Problem pb;
  pb.machine = std::move(machine);
  pb.sources = std::move(sources);
  pb.message_bytes = message_bytes;
  pb.validate();
  return pb;
}

Problem with_varied_lengths(Problem pb, double spread, std::uint64_t seed) {
  SPB_REQUIRE(spread >= 0 && spread < 1, "spread must be in [0, 1)");
  Rng rng(seed);
  pb.per_source_bytes.clear();
  pb.per_source_bytes.reserve(pb.sources.size());
  const double base = static_cast<double>(pb.message_bytes);
  for (std::size_t i = 0; i < pb.sources.size(); ++i) {
    const double factor = 1.0 + spread * (2.0 * rng.next_double() - 1.0);
    pb.per_source_bytes.push_back(
        std::max<Bytes>(1, static_cast<Bytes>(base * factor)));
  }
  pb.validate();
  return pb;
}

}  // namespace spb::stop
