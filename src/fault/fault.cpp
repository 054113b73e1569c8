#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/parse.h"
#include "common/rng.h"

namespace spb::fault {

namespace {

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

/// Stateless decision hash: a splitmix64 chain over the seed and the event
/// identifiers, mapped to [0, 1).  Two calls with the same arguments agree
/// forever; unrelated events are independent to hash quality.
double decision_u01(std::uint64_t seed, std::uint64_t stream, Rank src,
                    Rank dst, std::uint32_t seq, int attempt) {
  std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  state ^= splitmix64(state) ^ (static_cast<std::uint64_t>(
                                    static_cast<std::uint32_t>(src))
                                << 32 |
                                static_cast<std::uint32_t>(dst));
  state ^= splitmix64(state) ^ (static_cast<std::uint64_t>(seq) << 8 |
                                static_cast<std::uint64_t>(
                                    static_cast<unsigned>(attempt)));
  const std::uint64_t bits = splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kDropStream = 1;
constexpr std::uint64_t kAckStream = 2;

double parse_double(const std::string& key, const std::string& value) {
  // Strict: "timeout=5x" (trailing junk) and "lat=1e999" (out of range)
  // fail here with the reason; "drop=-1" parses and is rejected by
  // FaultSpec::validate with the allowed range.
  double d = 0;
  std::string error;
  SPB_REQUIRE(try_parse_double(value, d, error),
              "fault spec " << key << "=" << value << ": " << error);
  return d;
}

}  // namespace

void FaultSpec::validate() const {
  SPB_REQUIRE(drop_rate >= 0 && drop_rate < 1,
              "drop rate must be in [0, 1), got " << drop_rate);
  SPB_REQUIRE(dup_rate >= 0 && dup_rate < 1,
              "dup rate must be in [0, 1), got " << dup_rate);
  SPB_REQUIRE(link_fraction >= 0 && link_fraction <= 1,
              "degraded link fraction must be in [0, 1]");
  SPB_REQUIRE(bandwidth_divisor >= 1.0,
              "bandwidth divisor must be >= 1, got " << bandwidth_divisor);
  SPB_REQUIRE(latency_factor >= 1.0,
              "latency factor must be >= 1, got " << latency_factor);
  SPB_REQUIRE(stragglers >= 0, "straggler count must be >= 0");
  SPB_REQUIRE(straggle_factor >= 1.0,
              "straggle factor must be >= 1, got " << straggle_factor);
  SPB_REQUIRE(window_us >= 0, "window must be >= 0");
  SPB_REQUIRE(retransmit_timeout_us > 0, "retransmit timeout must be > 0");
  SPB_REQUIRE(max_attempts >= 1 && max_attempts <= 32,
              "max attempts must be in [1, 32], got " << max_attempts);
}

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  if (text.empty()) return spec;
  for (const std::string& part : split_commas(text)) {
    const std::size_t eq = part.find('=');
    SPB_REQUIRE(eq != std::string::npos && eq > 0,
                "fault spec entry '" << part << "' is not key=value");
    const std::string key = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    if (key == "drop") {
      spec.drop_rate = parse_double(key, value);
    } else if (key == "dup") {
      spec.dup_rate = parse_double(key, value);
    } else if (key == "links") {
      // FRACxDIV, e.g. 0.25x4: a quarter of the links at 4x slower.
      const std::size_t x = value.find('x');
      SPB_REQUIRE(x != std::string::npos,
                  "links wants FRACxDIV (e.g. 0.25x4), got '" << value << "'");
      spec.link_fraction = parse_double(key, value.substr(0, x));
      spec.bandwidth_divisor = parse_double(key, value.substr(x + 1));
    } else if (key == "lat") {
      spec.latency_factor = parse_double(key, value);
    } else if (key == "straggle") {
      // NxF, e.g. 1x3: one rank, three times slower.
      const std::size_t x = value.find('x');
      SPB_REQUIRE(x != std::string::npos,
                  "straggle wants NxF (e.g. 1x3), got '" << value << "'");
      spec.stragglers =
          static_cast<int>(parse_double(key, value.substr(0, x)));
      spec.straggle_factor = parse_double(key, value.substr(x + 1));
    } else if (key == "window") {
      spec.window_us = parse_double(key, value);
    } else if (key == "timeout") {
      spec.retransmit_timeout_us = parse_double(key, value);
    } else if (key == "attempts") {
      spec.max_attempts = static_cast<int>(parse_double(key, value));
    } else {
      SPB_REQUIRE(false, "unknown fault spec key '"
                             << key
                             << "' (drop, dup, links, lat, straggle, window, "
                                "timeout, attempts)");
    }
  }
  spec.validate();
  return spec;
}

std::string FaultSpec::to_string() const {
  std::ostringstream os;
  const char* sep = "";
  const auto emit = [&os, &sep](auto&& write) {
    os << sep;
    write();
    sep = ",";
  };
  if (drop_rate > 0) emit([&] { os << "drop=" << drop_rate; });
  if (dup_rate > 0) emit([&] { os << "dup=" << dup_rate; });
  if (link_fraction > 0)
    emit([&] { os << "links=" << link_fraction << "x" << bandwidth_divisor; });
  if (latency_factor > 1.0) emit([&] { os << "lat=" << latency_factor; });
  if (stragglers > 0)
    emit([&] { os << "straggle=" << stragglers << "x" << straggle_factor; });
  if (window_us > 0) emit([&] { os << "window=" << window_us; });
  if (retransmit_timeout_us != 50.0)
    emit([&] { os << "timeout=" << retransmit_timeout_us; });
  if (max_attempts != 8) emit([&] { os << "attempts=" << max_attempts; });
  return os.str();
}

FaultPlan::FaultPlan(const FaultSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  spec_.validate();
}

FaultPlan::FaultPlan(const FaultSpec& spec, std::uint64_t seed,
                     int link_space, int ranks)
    : FaultPlan(spec, seed) {
  SPB_REQUIRE(link_space >= 0, "negative link space");
  SPB_REQUIRE(ranks >= 1, "a fault plan needs at least one rank");
  if (spec_.degrades_links() && link_space > 0) {
    // Seeded distinct choice of ceil(fraction * links) degraded links.
    const int want = std::min(
        link_space,
        static_cast<int>(std::ceil(spec_.link_fraction *
                                   static_cast<double>(link_space))));
    Rng rng(seed_ ^ 0xdeadbeefULL);
    std::vector<std::int32_t> picks =
        rng.sample_without_replacement(link_space, want);
    std::vector<LinkId> links(picks.begin(), picks.end());
    set_degraded(std::move(links), link_space);
  }
  pick_stragglers(ranks);
}

FaultPlan FaultPlan::for_links(const FaultSpec& spec, std::uint64_t seed,
                               std::vector<LinkId> links, int link_space,
                               int ranks) {
  FaultPlan plan(spec, seed);
  SPB_REQUIRE(ranks >= 1, "a fault plan needs at least one rank");
  plan.set_degraded(std::move(links), link_space);
  plan.pick_stragglers(ranks);
  return plan;
}

void FaultPlan::set_degraded(std::vector<LinkId> links, int link_space) {
  degraded_.assign(static_cast<std::size_t>(link_space), 0);
  std::sort(links.begin(), links.end());
  for (const LinkId l : links) {
    SPB_REQUIRE(l >= 0 && l < link_space, "degraded link " << l
                                              << " outside the link space");
    degraded_[static_cast<std::size_t>(l)] = 1;
  }
  degraded_list_ = std::move(links);
  if (degraded_list_.empty()) degraded_.clear();
}

void FaultPlan::pick_stragglers(int ranks) {
  if (spec_.stragglers <= 0 || spec_.straggle_factor <= 1.0) return;
  const int count = std::min(spec_.stragglers, ranks);
  Rng rng(seed_ ^ 0x5717a66eULL);
  const std::vector<std::int32_t> picks =
      rng.sample_without_replacement(ranks, count);
  stragglers_.assign(picks.begin(), picks.end());
  slowdown_.assign(static_cast<std::size_t>(ranks), 1.0);
  for (const Rank r : stragglers_)
    slowdown_[static_cast<std::size_t>(r)] = spec_.straggle_factor;
}

std::uint64_t FaultPlan::window_index(SimTime t) const {
  if (spec_.window_us <= 0) return 0;
  return static_cast<std::uint64_t>(t / spec_.window_us);
}

bool FaultPlan::window_active(SimTime t) const {
  if (spec_.window_us <= 0) return true;
  return window_index(t) % 2 == 0;
}

bool FaultPlan::transit_dropped(Rank src, Rank dst, std::uint32_t seq,
                                int attempt) const {
  if (spec_.drop_rate <= 0) return false;
  if (attempt + 1 >= spec_.max_attempts) return false;  // transient faults
  return decision_u01(seed_, kDropStream, src, dst, seq, attempt) <
         spec_.drop_rate;
}

bool FaultPlan::ack_dropped(Rank src, Rank dst, std::uint32_t seq,
                            int attempt) const {
  if (spec_.dup_rate <= 0) return false;
  return decision_u01(seed_, kAckStream, src, dst, seq, attempt) <
         spec_.dup_rate;
}

SimTime FaultPlan::backoff_us(int attempt) const {
  const int capped = std::min(attempt, 5);  // 32x ceiling
  return spec_.retransmit_timeout_us * static_cast<double>(1 << capped);
}

SeededSpec parse_seeded(const std::string& text, const std::string& where,
                        std::uint64_t default_seed) {
  SeededSpec out;
  out.seed = default_seed;
  out.text = text;
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    out.spec = FaultSpec::parse(text);
    return out;
  }
  // Strict: std::stoull would wrap a "-1" seed to 2^64-1 silently.
  out.seed = parse_u64_or_throw(
      where.empty() ? "fault seed" : "fault seed in " + where,
      text.substr(0, colon));
  out.spec = FaultSpec::parse(text.substr(colon + 1));
  return out;
}

FaultPlanPtr parse_plan(const std::string& text, int link_space, int ranks,
                        std::uint64_t default_seed) {
  const SeededSpec f = parse_seeded(text, {}, default_seed);
  return std::make_shared<const FaultPlan>(f.spec, f.seed, link_space, ranks);
}

}  // namespace spb::fault
