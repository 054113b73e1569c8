// The concurrent broadcast-planning server behind spb_serve.
//
// One Server owns a fixed worker pool, a bounded FIFO admission queue, a
// ShardedPlanCache (misses coalesce: concurrent identical signatures plan
// once), a per-machine planner memo, and a latency histogram.  Lines go in
// through submit_line(); JSONL responses come out on the ostream, always
// in submission order — responses that finish early wait in a ring of
// slots indexed by sequence number, so output is byte-identical no matter
// how many workers served the session (the ext_serve gate pins this for
// plan traffic).  Whichever thread completes the next response in order
// becomes the one writer: it takes the ready run out of the ring and
// writes it outside the ring's lock, with one flush per run.
//
// Admission control is explicit: when the queue is at max_queue, the line
// is answered immediately with {"ok":false,"error":"overloaded"} — the
// protocol never drops a request silently.  Malformed lines are answered
// in place with a structured error and the session continues.
//
// A stats request is a *fence*: the worker that takes it leaves it claimed
// at the front of the queue and waits until every earlier request has been
// answered and written, and no later request starts before it completes.
// Its snapshot therefore covers exactly the requests submitted before it,
// which — together with coalesced misses counting once — makes
// "deterministic":true stats responses a pure function of the request
// trace (timing-dependent sections: latency, queue depth, coalesced
// counts, are omitted there).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/report.h"
#include "plan/sharded_cache.h"
#include "serve/histogram.h"
#include "serve/protocol.h"

namespace spb::serve {

struct ServerOptions {
  /// Default machine for requests that do not name one.
  std::string machine = "paragon8x8";
  int workers = 4;
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = plan::ShardedPlanCache::kDefaultShards;
  /// Pending-request bound; submissions beyond it are load-shed with an
  /// explicit "overloaded" response.
  std::size_t max_queue = 1024;

  /// Test instrumentation, both null in production: `job_hook` runs at the
  /// start of every worker job (lets tests stall the pool to force
  /// saturation or simultaneous arrivals); `plan_hook` runs inside the
  /// cache's compute callback, i.e. exactly once per actual planner
  /// invocation (lets tests count invocations under coalescing).
  std::function<void()> job_hook;
  std::function<void()> plan_hook;
};

/// Request counters, by outcome of the response actually emitted.
struct RequestCounters {
  std::uint64_t plan = 0;
  std::uint64_t execute = 0;
  std::uint64_t stats = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;

  std::uint64_t total() const {
    return plan + execute + stats + errors + shed;
  }
};

class Server {
 public:
  /// Responses are written to `out` (one JSON object per line, submission
  /// order).  The default machine's planner is built eagerly so the first
  /// request does not pay for it.
  Server(ServerOptions options, std::ostream& out);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parses and admits one request line (without trailing newline).
  /// Never throws on bad input: malformed lines and overload are answered
  /// through the response stream.
  void submit_line(std::string_view line);

  /// Like submit_line, but blocks for queue space instead of load-shedding
  /// — cooperative in-process drivers (spb_serve --demo, bench/ext_serve)
  /// use this so their traffic is never answered "overloaded" and the
  /// response stream stays a pure function of the request stream.
  void submit_line_wait(std::string_view line);

  /// Blocks until every submitted line has been answered and flushed.
  void drain();

  const ServerOptions& options() const { return options_; }
  std::uint64_t submitted() const;

  plan::CacheStats cache_stats() const { return cache_.stats(); }
  std::vector<plan::CacheStats> cache_shard_stats() const {
    return cache_.shard_stats();
  }
  const plan::ShardedPlanCache& cache() const { return cache_; }
  RequestCounters counters() const;
  LatencyHistogram::Snapshot latency() const { return latency_.snapshot(); }
  std::uint64_t queue_max_depth() const;

  /// The obs serve-report section for this session (throughput fields are
  /// left zero; timing drivers fill them).
  obs::ServeSection report_section() const;

 private:
  struct Job {
    std::uint64_t seq = 0;
    Request req;
    std::chrono::steady_clock::time_point t0;
    /// A stats fence being processed in place (stays at the front so no
    /// later job starts underneath the snapshot).
    bool claimed = false;
  };
  enum class Outcome { kPlan, kExecute, kStats, kError, kShed };
  /// One response waiting for its turn to be written.
  struct Slot {
    std::string text;
    Outcome outcome = Outcome::kError;
    bool ready = false;
  };

  void submit_internal(std::string_view line, bool block);
  void worker_loop();
  bool can_take_front() const;  // queue_mu_ held
  void process(const Job& job);
  std::string handle_plan(const Job& job, std::uint64_t rid);
  std::string handle_execute(const Job& job, std::uint64_t rid);
  std::string handle_stats(const Job& job, std::uint64_t rid);
  const plan::Planner& planner_for(const std::string& machine_name);
  void emit(std::uint64_t seq, std::string text, Outcome outcome);
  void count(Outcome outcome);  // out_mu_ held
  void await_output(std::uint64_t seq);

  ServerOptions options_;
  std::ostream& out_;

  plan::ShardedPlanCache cache_;
  LatencyHistogram latency_;

  mutable std::mutex planners_mu_;
  std::map<std::string, std::unique_ptr<plan::Planner>> planners_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable space_cv_;  // signaled when jobs are popped
  std::deque<Job> queue_;
  std::uint64_t queue_max_depth_ = 0;
  bool stopping_ = false;

  mutable std::mutex out_mu_;
  std::condition_variable out_cv_;  // next_out_ advanced
  std::deque<Slot> ring_;           // ring_[i] holds seq ring_base_ + i
  std::uint64_t ring_base_ = 0;     // first seq not yet taken by a writer
  std::uint64_t next_out_ = 0;      // first seq not yet written
  bool writing_ = false;            // a thread is writing a run
  std::vector<std::string> run_;    // the writer's run, written unlocked
  RequestCounters counters_;        // bumped as a run is taken
  std::atomic<std::uint64_t> submitted_{0};

  std::vector<std::thread> workers_;
};

}  // namespace spb::serve
