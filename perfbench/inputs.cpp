#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "stop/algorithm.h"

namespace perfbench {

namespace {

using spb::Bytes;
using spb::Rng;
namespace dist = spb::dist;

struct MachineSpec {
  std::string name;
  int p;
};

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const spb::stop::AlgorithmPtr& a : spb::stop::all_algorithms())
    names.push_back(a->name());
  return names;
}

/// Stream-independent per-item seed: the same (seed, salt, index) always
/// yields the same value whatever else was generated before it.
std::uint64_t item_seed(std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t index) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                        (index * 0xbf58476d1ce4e5b9ULL);
  return spb::splitmix64(state);
}

std::string t3d(int p, std::uint64_t seed) {
  return "t3d" + std::to_string(p) + ":" +
         std::to_string(t3d_mapping_seed(seed));
}

/// Full algorithm x distribution grid on the given machines.
void add_grid(std::vector<Combo>& out, const std::vector<MachineSpec>& ms,
              const std::vector<Bytes>& lens, std::uint64_t seed) {
  const std::vector<std::string> algs = algorithm_names();
  for (const MachineSpec& m : ms)
    for (const Bytes len : lens)
      for (const std::string& alg : algs)
        for (const dist::Kind kind : dist::all_kinds()) {
          Combo c;
          c.machine = m.name;
          c.algorithm = alg;
          c.kind = kind;
          c.sources = std::max(1, m.p / 4);
          c.len = len;
          c.dist_seed = kind == dist::Kind::kRandom
                            ? item_seed(seed, 1, out.size())
                            : 1;
          out.push_back(c);
        }
}

}  // namespace

std::uint64_t t3d_mapping_seed(std::uint64_t seed) {
  return 1 + seed % 1000003;
}

std::vector<Combo> sim_sweep_combos(std::uint64_t seed) {
  std::vector<Combo> out;
  add_grid(out,
           {{"paragon8x8", 64},
            {"paragon16x16", 256},
            {t3d(64, seed), 64},
            {"torus4x4x4x4", 256},
            {"cluster8x4", 32}},
           {512, 16384}, seed);
  return out;
}

std::vector<Combo> sim_large_combos(std::uint64_t seed) {
  // E(s) sources: with a few runs per pass, seeded source sets would move
  // the run-time distribution from seed to seed; the seed still moves the
  // t3d512 mapping and the run order.
  //
  // 2-Step's pipelined broadcast moves s*L bytes through every tree edge in
  // segments: at s = p/4 on torus8x8x16 one run takes ~0.8 s and on
  // torus16x16x16 ~27 s (even s = 64 takes ~1.6 s there), which would leave
  // room for no repetition, so those combos are left out.
  const std::vector<MachineSpec> machines = {{t3d(512, seed), 512},
                                             {"torus16x16x16", 4096},
                                             {"torus8x8x16", 1024},
                                             {"cluster16x16", 256}};
  std::vector<Combo> out;
  for (const MachineSpec& m : machines) {
    std::vector<int> counts = {64};
    if (m.p / 4 != 64) counts.push_back(m.p / 4);
    for (const char* alg : {"Br_Lin", "2-Step", "Br_xy_dim"})
      for (const int s : counts) {
        if (std::string(alg) == "2-Step" &&
            (m.p >= 4096 || (m.p >= 1024 && s > 64)))
          continue;
        Combo c;
        c.machine = m.name;
        c.algorithm = alg;
        c.kind = dist::Kind::kEqual;
        c.sources = s;
        c.len = 65536;
        out.push_back(c);
      }
    Combo f;
    f.machine = m.name;
    f.algorithm = "Br_Lin";
    f.kind = dist::Kind::kEqual;
    f.sources = m.p / 4;
    f.len = 65536;
    f.faulted = true;
    out.push_back(f);
  }
  return out;
}

std::vector<Combo> check_combos(std::uint64_t seed) {
  std::vector<Combo> out;
  add_grid(out, {{"paragon4x4", 16}, {"paragon8x8", 64}, {t3d(64, seed), 64}},
           {2048}, seed);
  // ext_verify's shapes: a 1xN chain, the paper's 4x4 and a
  // non-power-of-two mesh, row sources, s small enough for exhaustive
  // exploration.
  struct Shape {
    const char* name;
    int sources;
  };
  for (const Shape sh : {Shape{"paragon1x8", 2}, Shape{"paragon4x4", 4},
                         Shape{"paragon3x5", 3}})
    for (const std::string& alg : algorithm_names()) {
      Combo c;
      c.machine = sh.name;
      c.algorithm = alg;
      c.kind = dist::Kind::kRow;
      c.sources = sh.sources;
      c.len = 2048;
      c.certify = true;
      out.push_back(c);
    }
  return out;
}

std::vector<std::size_t> run_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(item_seed(seed, 3, n));
  rng.shuffle(order);
  return order;
}

ServeTraffic::ServeTraffic(std::uint64_t seed) : seed_(seed) {
  // The ext_serve / spb_plan --replay template pool on paragon8x8, with the
  // pool's make-up fixed: template i takes distribution i mod 9, source
  // count i mod 4 and length (i / 4) mod 4 of the pools, so every seed
  // offers the same mix of work.  The seed picks the Rand source sets and,
  // in request(), the order the stream samples the pool in.
  constexpr int p = 64;
  const std::vector<int> s_pool = {p / 8, p / 4, (3 * p) / 8, p / 2};
  const std::vector<Bytes> len_pool = {512, 1024, 6144, 32768};
  const auto& kinds = dist::all_kinds();
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < kPoolSize; ++i) {
    const auto u = static_cast<std::size_t>(i);
    ServeSpec t;
    t.machine = "paragon8x8";
    t.dist = dist::kind_name(kinds[u % kinds.size()]);
    t.sources = s_pool[u % s_pool.size()];
    t.len = len_pool[(u / 4) % len_pool.size()];
    t.dist_seed = 1 + rng.next_below(4);
    t.template_index = i;
    templates_.push_back(t);
  }
}

ServeSpec ServeTraffic::never_seen(std::uint64_t i) const {
  // A (dist, s, L-bucket) combo on paragon8x8 from a space of 2048 whose
  // odd source counts the template pool never uses; request i takes combo
  // (i * 7919 + seed) mod 2048, so two never-seen requests share a combo
  // only when their indices are 2048 apart.
  constexpr std::uint64_t kKinds = 8, kBuckets = 8, kCombos = 2048;
  std::uint64_t combo = (i * 7919 + seed_) % kCombos;
  ServeSpec spec;
  spec.machine = "paragon8x8";
  spec.dist = dist::kind_name(dist::all_kinds()[combo % kKinds]);
  combo /= kKinds;
  spec.len = Bytes{1} << (9 + combo % kBuckets);
  spec.sources = 1 + 2 * static_cast<int>(combo / kBuckets);
  return spec;
}

ServeSpec ServeTraffic::request(std::uint64_t i, bool allow_novel) const {
  Rng rng(item_seed(seed_, 4, i));
  const bool novel = rng.next_below(kNovelEvery) == 0 && allow_novel;
  ServeSpec spec = novel ? never_seen(i)
                        : templates_[rng.next_below(templates_.size())];
  // Length jitter within the power-of-two bucket, as ext_serve does.
  spec.len += static_cast<Bytes>(rng.next_below(spec.len / 8 + 1));
  return spec;
}

std::string ServeTraffic::render(const ServeSpec& spec, std::uint64_t id) {
  std::string line = "{\"op\":\"plan\",\"id\":" + std::to_string(id) +
                     ",\"machine\":\"" + spec.machine + "\",\"dist\":\"" +
                     spec.dist + "\",\"sources\":" +
                     std::to_string(spec.sources) +
                     ",\"len\":" + std::to_string(spec.len) +
                     ",\"seed\":" + std::to_string(spec.dist_seed) + "}";
  return line;
}

std::string describe(const Combo& c) {
  std::ostringstream os;
  os << c.machine << ' ' << c.algorithm << ' ' << dist::kind_name(c.kind)
     << " s=" << c.sources << " L=" << c.len << " seed=" << c.dist_seed
     << (c.faulted ? " faulted" : "") << (c.certify ? " certify" : "");
  return os.str();
}

}  // namespace perfbench
