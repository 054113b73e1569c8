// Seeded input generation for every workload.  The benchmark derives all
// of a run's inputs here from --seed, and the code under test sees only
// the generated values: machine specs, algorithm names, source
// distributions and request lines.  The same seed gives byte-identical
// inputs (perfbench_test pins this through describe()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "dist/distribution.h"

namespace perfbench {

/// The CI adverse fault spec ("42:drop=0.1,links=0.25x4,straggle=1x3").
inline constexpr const char* kAdverseFaults =
    "drop=0.1,links=0.25x4,straggle=1x3";
inline constexpr std::uint64_t kAdverseFaultSeed = 42;

/// One simulated broadcast (or one recorded schedule on check_sweep).
struct Combo {
  std::string machine;  // machine::from_name spec
  std::string algorithm;
  spb::dist::Kind kind = spb::dist::Kind::kRow;
  int sources = 1;
  spb::Bytes len = 0;
  std::uint64_t dist_seed = 1;  // only read by Kind::kRandom
  bool faulted = false;         // run under kAdverseFaults
  bool certify = false;         // check_sweep: certify instead of analyze
};

/// All 19 algorithms x 9 distributions x {paragon8x8, paragon16x16, t3d64,
/// torus4x4x4x4, cluster8x4} x L in {512, 16384}, s = p/4.
std::vector<Combo> sim_sweep_combos(std::uint64_t seed);

/// Br_Lin, 2-Step and Br_xy_dim on t3d512, torus16x16x16, torus8x8x16 and
/// cluster16x16 at L = 65536, s in {64, p/4}, plus one faulted Br_Lin per
/// machine.
std::vector<Combo> sim_large_combos(std::uint64_t seed);

/// record+analyze over {paragon4x4, paragon8x8, t3d64} x 19 x 9, then
/// certification on the <=16-rank shapes ext_verify uses.
std::vector<Combo> check_combos(std::uint64_t seed);

/// Seeded execution order over n jobs (a permutation of 0..n-1).
std::vector<std::size_t> run_order(std::size_t n, std::uint64_t seed);

/// The T3D mapping seed a benchmark seed selects (never 0, which would
/// mean the contiguous placement).
std::uint64_t t3d_mapping_seed(std::uint64_t seed);

/// One plan request of the serve traffic.
struct ServeSpec {
  std::string machine;
  std::string dist;
  int sources = 0;
  spb::Bytes len = 0;
  std::uint64_t dist_seed = 1;
  /// Index into ServeTraffic::templates(), or -1 for a never-seen combo.
  int template_index = -1;
};

/// The serve_plan request stream: the seeded ext_serve template pool on
/// paragon8x8 (hit-heavy), with one never-seen paragon8x8 request in
/// 10000 on average, which forces a planner run and a cache insert.
///
/// Never-seen requests are rare and stay on paragon8x8 because planning is
/// ~1000x a cache hit: on paragon8x8 a plan takes 0.3-6 ms against ~3 us
/// for a hit, and on paragon16x16 / t3d512 structured distributions take
/// a median of 2 ms / 113 ms and up to 0.24 s / 2.2 s (Rand is slower
/// still).  Responses leave in submission order, so each planner run
/// stalls every later response; at 2% never-seen an open-loop phase would
/// measure planner stalls instead of the hit path.
class ServeTraffic {
 public:
  static constexpr int kPoolSize = 32;
  /// One request in kNovelEvery is never-seen.
  static constexpr std::uint64_t kNovelEvery = 10000;

  explicit ServeTraffic(std::uint64_t seed);

  const std::vector<ServeSpec>& templates() const { return templates_; }
  /// Request i of the stream, a pure function of (seed, i); without
  /// `allow_novel`, a never-seen request is replaced by a template one.
  ServeSpec request(std::uint64_t i, bool allow_novel = true) const;
  /// The never-seen request the stream would place at index i.
  ServeSpec never_seen(std::uint64_t i) const;
  /// The JSONL request line for `spec`, carrying id `id`.
  static std::string render(const ServeSpec& spec, std::uint64_t id);

 private:
  std::uint64_t seed_;
  std::vector<ServeSpec> templates_;
};

/// Canonical text of a combo, for input-determinism checks.
std::string describe(const Combo& combo);

}  // namespace perfbench
