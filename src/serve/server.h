// The concurrent broadcast-planning server behind spb_serve.
//
// One Server owns a fixed worker pool, a bounded FIFO admission queue, a
// ShardedPlanCache (misses coalesce: concurrent identical signatures plan
// once), a per-machine planner memo, and per-worker latency histograms.
// Lines go in through submit_line(); JSONL responses come out on the
// ostream, always in submission order — responses that finish early wait
// in a ring of slots indexed by sequence number, so output is
// byte-identical no matter how many workers served the session (the
// ext_serve gate pins this for plan traffic).  Whichever thread completes
// the next response in order becomes the one writer: it takes the ready
// run out of the ring and writes it outside the ring's lock, with one
// write and one flush per run.
//
// A warm cache hit touches no shared structure but the cache shard and
// the two rings, and allocates nothing: each worker memoizes what a
// request template (machine, dist, sources, seed, faults) resolves to —
// its planner and its signature up to the length bucket — so a repeated
// template skips the planner lookup, source generation and signature
// build; jobs and responses live in ring slots that are reused, and a
// response is formatted into a buffer whose capacity circulates between
// the worker and the output ring.  The hot-path mutexes are taken with a
// short try_lock spin before blocking, and an idle worker polls the
// queue briefly before it parks, so a steady stream needs no futex sleep
// or wake-up and an idle server uses no CPU.
//
// With more than one worker, parsing happens on the workers: the
// submitter only screens a line for the bytes a stats fence needs
// ("stats" or an escape), copies a line that has neither into its job
// slot unparsed, and the worker that takes the job parses it (the latency
// histogram then includes the parse).  Every other line, and every line
// of a one-worker server, is parsed on submission.
//
// Admission control is explicit: when the queue is at max_queue, the line
// is answered immediately with {"ok":false,"error":"overloaded"} — the
// protocol never drops a request silently.  A malformed line is answered
// with a structured error and the session continues: by the submitter
// when it parsed the line (and always when the queue is full), else by
// the worker that parses it, in the same place in the stream.
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
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
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
  /// Request templates each worker memoizes (a fixed table; templates
  /// whose machine, dist and faults text run past 64 bytes in all are not
  /// memoized).
  static constexpr std::size_t kTemplateMemoEntries = 256;

  /// Responses are written to `out` (one JSON object per line, submission
  /// order).  The default machine's planner is built eagerly so the first
  /// request does not pay for it.
  Server(ServerOptions options, std::ostream& out);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits one request line (without trailing newline).  Never throws on
  /// bad input: malformed lines and overload are answered through the
  /// response stream; a malformed line gets its parse error even when the
  /// queue is full.
  void submit_line(std::string_view line);

  /// Like submit_line, but blocks for queue space instead of load-shedding
  /// — cooperative in-process drivers (spb_serve --demo, bench/ext_serve)
  /// use this so their traffic is never answered "overloaded" and the
  /// response stream stays a pure function of the request stream.  With
  /// more than one worker, a malformed line admitted unparsed also takes
  /// a queue slot (and may wait for one) until a worker answers it.
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
  /// The sum of the workers' latency histograms.
  LatencyHistogram::Snapshot latency() const;
  std::uint64_t queue_max_depth() const;

  /// The obs serve-report section for this session (throughput fields are
  /// left zero; timing drivers fill them).
  obs::ServeSection report_section() const;

 private:
  struct Job {
    std::uint64_t seq = 0;
    /// Whether `req` holds this job's request; else the worker parses
    /// `line` into it.  A reused slot's `req` and `line` still hold an
    /// earlier job's until then.
    bool parsed = false;
    /// A stats request, set at admission: an unparsed line is never one.
    bool fence = false;
    Request req;
    /// The request line of an unparsed job.  Its buffer stays with the
    /// slot and circulates between ring and batch slots as jobs move.
    std::string line;
    std::chrono::steady_clock::time_point t0;
  };
  enum class Outcome { kPlan, kExecute, kStats, kError, kShed };
  /// One response waiting for its turn to be written.
  struct Slot {
    std::string text;
    Outcome outcome = Outcome::kError;
    bool ready = false;
  };
  /// A finished response on its way into the output ring.
  struct Response {
    std::uint64_t seq = 0;
    Outcome outcome = Outcome::kError;
    std::string text;
  };
  struct Template;
  class TemplateMemo;
  struct Worker;

  void submit_internal(std::string_view line, bool block);
  static bool parse_into(std::string_view line, std::uint64_t seq,
                         Request& req, Response& r);
  void worker_loop(Worker& w);
  // The job ring; queue_mu_ held for all but spin_for_job().
  Job& job_at(std::uint64_t i) { return jobs_[i & (jobs_.size() - 1)]; }
  std::uint64_t depth() const { return tail_ - head_; }
  bool can_take_front() const;
  void publish_takeable();
  bool await_job(std::unique_lock<std::mutex>& lock);
  bool claim_wake();
  bool spin_for_job() const;
  void process(Job& job, Worker& w, Response& r);
  void handle_plan(const Request& req, std::uint64_t rid, Worker& w,
                   std::string& text);
  void handle_execute(const Request& req, std::uint64_t rid, Worker& w,
                      std::string& text);
  void handle_stats(const Request& req, std::uint64_t rid,
                    std::string& text);
  std::shared_ptr<const plan::Plan> cached_plan(const Request& req,
                                                Worker& w, Template& t,
                                                std::vector<Rank>& sources);
  Template resolve(const Request& req, std::vector<Rank>& sources);
  const plan::Planner& planner_for(const std::string& machine_name);
  void emit(std::span<Response> responses);
  Slot& slot_of(std::uint64_t seq) {  // out_mu_ held
    return ring_[seq & (ring_.size() - 1)];
  }
  void count(Outcome outcome);  // out_mu_ held
  void await_output(std::uint64_t seq);

  ServerOptions options_;
  std::ostream& out_;

  plan::ShardedPlanCache cache_;

  mutable std::mutex planners_mu_;
  std::map<std::string, std::unique_ptr<plan::Planner>> planners_;

  // Admission.  jobs_ is a ring of reused slots (a power of two, grown on
  // demand up to max_queue): jobs_[i & (size - 1)] holds job i for i in
  // [head_, tail_).  A claimed stats fence keeps its slot at head_ until
  // it completes.
  alignas(64) mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // parked workers
  std::condition_variable space_cv_;  // submitters waiting for space
  std::vector<Job> jobs_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  bool fence_claimed_ = false;
  bool stopping_ = false;
  bool wake_pending_ = false;  // a parked worker was woken, not yet running
  int spinning_ = 0;           // workers polling takeable_
  int parked_ = 0;             // workers waiting on queue_cv_
  int spin_limit_ = 0;         // most workers that may spin at once
  std::uint64_t space_waiters_ = 0;
  std::uint64_t queue_max_depth_ = 0;
  /// can_take_front() as of the last change under queue_mu_, for workers
  /// that poll the ring without the lock.
  std::atomic<bool> takeable_{false};
  std::atomic<std::uint64_t> submitted_{0};

  alignas(64) mutable std::mutex out_mu_;
  std::condition_variable out_cv_;  // next_out_ advanced
  std::vector<Slot> ring_;          // ring_[seq & (size - 1)], a power of two
  std::uint64_t ring_base_ = 0;     // first seq not yet taken by a writer
  std::uint64_t next_out_ = 0;      // first seq not yet written
  bool writing_ = false;            // a thread is writing a run
  std::string run_;                 // the writer's run, written unlocked
  /// Emptied response strings, for reuse.  Strings are never freed, so
  /// there are only ever as many as were once in flight together.
  std::vector<std::string> spare_;
  RequestCounters counters_;        // bumped as a run is taken

  std::vector<std::unique_ptr<Worker>> worker_state_;
  std::vector<std::thread> workers_;
};

}  // namespace spb::serve
