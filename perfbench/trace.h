// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark wraps each of its own calls into a module's public function
// in a Span (name, start, end, parent span, job id).  Spans stay in memory
// while the workload runs and are written out once at exit; a layer's self
// time is its spans' duration minus the part covered by their direct
// children.  With the tracer disabled a Span costs one branch, which is how
// the untraced end-to-end runs are measured.
//
// A recorded span costs its parent some time of its own (clock reads and
// bookkeeping).  calibrate() measures that cost, and self_times() takes it
// out of each parent's self time once per direct child, so that traced
// self times add up to what the same work costs untraced.
#pragma once

#include <chrono>
#include <cstdint>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace detail {
// TSC-to-steady_clock mapping, set by init_span_clock().
extern double ns_per_tick;
extern std::uint64_t tick0;
extern std::int64_t ns0;
void init_span_clock();
}  // namespace detail

/// Span timestamps on now_ns()'s time base.  On x86-64 it reads the TSC
/// (about half the cost of a steady_clock read on a VM) and scales it with
/// a factor measured against steady_clock the first time a tracer is
/// enabled; elsewhere it is now_ns().
inline std::int64_t span_clock_ns() {
#if defined(__x86_64__)
  return detail::ns0 + static_cast<std::int64_t>(
                           static_cast<double>(__rdtsc() - detail::tick0) *
                           detail::ns_per_tick);
#else
  return now_ns();
#endif
}

struct SpanRecord {
  std::uint32_t name = 0;
  /// Index of the enclosing span in Tracer::spans(), -1 for a root.
  std::int32_t parent = -1;
  std::uint64_t job = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Aggregate of every span with one name.
struct LayerTime {
  double self_ns = 0;
  double total_ns = 0;
  std::uint64_t count = 0;

  double mean_self_us() const {
    return count == 0 ? 0.0 : self_ns / 1000.0 / static_cast<double>(count);
  }
};

class Tracer {
 public:
  void set_enabled(bool on) {
    if (on) detail::init_span_clock();
    enabled_ = on;
  }
  bool enabled() const { return enabled_; }

  std::uint32_t intern(std::string_view name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  /// Opens a span nested in the innermost open one.  A root span takes
  /// `job`; a nested span inherits its parent's job id.
  int open(std::uint32_t name, std::uint64_t job, std::int64_t start_ns);
  void close(int index, std::int64_t end_ns);
  void rename(int index, std::uint32_t name) {
    spans_[static_cast<std::size_t>(index)].name = name;
  }

  /// Makes room for `spans` more spans and touches the memory, so that
  /// recording them pays no allocation or page fault.
  void reserve(std::size_t spans);

  /// Measures the cost one nested span adds to its parent (run once,
  /// while enabled, before the spans to be aggregated).
  void calibrate();
  double span_cost_ns() const { return span_cost_ns_; }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Position to aggregate from, so one run can hold several segments.
  std::size_t mark() const { return spans_.size(); }

  /// Self and total time per span name over spans [from, end), each
  /// parent's self time net of span_cost_ns() per direct child.  Every span
  /// in the range must be closed.
  std::map<std::string, LayerTime> self_times(std::size_t from = 0) const;

  /// Writes every span as one JSON document; false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  double span_cost_ns_ = 0;
  std::vector<SpanRecord> spans_;
  int current_ = -1;  // innermost open span
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
};

/// RAII span on the calling thread's tracer (no-op while disabled).
class Span {
 public:
  Span(Tracer& tracer, std::uint32_t name, std::uint64_t job = 0)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name, job, span_clock_ns())
                                : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_, span_clock_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void rename(std::uint32_t name) {
    if (index_ >= 0) tracer_.rename(index_, name);
  }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
