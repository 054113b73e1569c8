#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace detail {

double ns_per_tick = 1.0;
std::uint64_t tick0 = 0;
std::int64_t ns0 = 0;

void init_span_clock() {
#if defined(__x86_64__)
  static const bool done = [] {
    const std::int64_t t0 = now_ns();
    const std::uint64_t k0 = __rdtsc();
    while (now_ns() - t0 < 20000000) {
    }
    const std::int64_t t1 = now_ns();
    const std::uint64_t k1 = __rdtsc();
    ns_per_tick = static_cast<double>(t1 - t0) / static_cast<double>(k1 - k0);
    tick0 = k0;
    ns0 = t0;
    return true;
  }();
  (void)done;
#endif
}

}  // namespace detail

std::uint32_t Tracer::intern(std::string_view name) {
  const std::string key(name);
  const auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(key);
  ids_.emplace(key, id);
  return id;
}

int Tracer::open(std::uint32_t name, std::uint64_t job,
                 std::int64_t start_ns) {
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.parent = current_;
  rec.job = current_ < 0 ? job
                         : spans_[static_cast<std::size_t>(current_)].job;
  current_ = static_cast<int>(spans_.size());
  spans_.push_back(rec);
  return current_;
}

void Tracer::close(int index, std::int64_t end_ns) {
  if (index != current_)
    throw std::logic_error("perfbench: spans must close innermost first");
  SpanRecord& rec = spans_[static_cast<std::size_t>(index)];
  rec.end_ns = end_ns;
  current_ = rec.parent;
}

void Tracer::reserve(std::size_t spans) {
  const std::size_t size = spans_.size();
  spans_.resize(size + spans);
  spans_.resize(size);
}

void Tracer::calibrate() {
  // Root span around kSpans empty nested spans, against the same loop
  // untraced; the calibration spans are dropped afterwards.
  constexpr int kSpans = 20000;
  const std::uint32_t probe = intern("tracer.calibrate");
  const std::size_t before = spans_.size();
  const bool was = enabled_;
  double best = 1e300;
  for (int round = 0; round < 5; ++round) {
    enabled_ = false;
    std::int64_t t0 = now_ns();
    for (int i = 0; i < kSpans; ++i) Span s(*this, probe);
    const auto off = static_cast<double>(now_ns() - t0);
    set_enabled(true);
    t0 = now_ns();
    {
      Span root(*this, probe);
      for (int i = 0; i < kSpans; ++i) Span s(*this, probe);
    }
    const auto on = static_cast<double>(now_ns() - t0);
    best = std::min(best, (on - off) / kSpans);
    spans_.resize(before);
  }
  enabled_ = was;
  span_cost_ns_ = std::max(0.0, best);
}

std::map<std::string, LayerTime> Tracer::self_times(std::size_t from) const {
  // Child time is charged against the parent only when the parent lies in
  // the same range; a range starting mid-tree treats its spans as roots.
  std::vector<double> child_ns(spans_.size() - from, 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent >= static_cast<std::int32_t>(from))
      child_ns[static_cast<std::size_t>(s.parent) - from] +=
          static_cast<double>(s.end_ns - s.start_ns) + span_cost_ns_;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double total = static_cast<double>(s.end_ns - s.start_ns);
    LayerTime& lt = out[names_[s.name]];
    lt.total_ns += total;
    lt.self_ns += total - child_ns[i - from];
    ++lt.count;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"names\":[");
  for (std::size_t i = 0; i < names_.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ",", names_[i].c_str());
  std::fprintf(f, "],\n\"spans\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f, "%s[%u,%d,%llu,%lld,%lld]", i == 0 ? "" : ",\n", s.name,
                 s.parent, static_cast<unsigned long long>(s.job),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
