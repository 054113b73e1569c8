#include "serve/server.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "dist/distribution.h"
#include "dist/grid.h"
#include "fault/fault.h"
#include "machine/config.h"
#include "obs/json.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "stop/run.h"

namespace spb::serve {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// CheckError carries "<kind> failed: (<expr>) at <file>:<line> — <msg>".
/// The wire protocol reports just <msg>: the expression and source location
/// are build-tree details, and an absolute path in a response would make
/// transcripts differ between checkouts.
std::string_view public_error(std::string_view what) {
  if (what.find(" failed: (") == std::string_view::npos) return what;
  const std::size_t dash = what.find(" \xe2\x80\x94 ");
  return dash == std::string_view::npos ? what : what.substr(dash + 5);
}

}  // namespace

Server::Server(ServerOptions options, std::ostream& out)
    : options_(std::move(options)),
      out_(out),
      cache_(options_.cache_capacity, options_.cache_shards) {
  SPB_REQUIRE(options_.workers >= 1, "serve needs at least one worker");
  SPB_REQUIRE(options_.max_queue >= 1, "serve needs max_queue >= 1");
  planner_for(options_.machine);  // resolve the default machine eagerly
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Server::~Server() {
  drain();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void Server::submit_line(std::string_view line) {
  submit_internal(line, /*block=*/false);
}

void Server::submit_line_wait(std::string_view line) {
  submit_internal(line, /*block=*/true);
}

void Server::submit_internal(std::string_view line, bool block) {
  const std::uint64_t seq = submitted_.fetch_add(1);
  Request req;
  const std::string parse_error = parse_request(line, req);
  const std::uint64_t rid = req.has_id ? req.id : seq;

  if (!parse_error.empty()) {
    std::string text;
    write_error_response(text, rid, parse_error);
    emit(seq, std::move(text), Outcome::kError);
    return;
  }

  bool shed = false;
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (queue_.size() >= options_.max_queue && !block) {
      shed = true;
    } else {
      space_cv_.wait(
          lock, [this] { return queue_.size() < options_.max_queue; });
      // A job landing in an empty queue wakes a worker; the ones behind it
      // are passed on by the worker that takes it (worker_loop).
      wake = queue_.empty();
      queue_.push_back(Job{.seq = seq,
                           .req = std::move(req),
                           .t0 = std::chrono::steady_clock::now(),
                           .claimed = false});
      if (queue_.size() > queue_max_depth_) queue_max_depth_ = queue_.size();
    }
  }
  if (shed) {
    // Load-shed: answer now, explicitly — never a silent drop.
    std::string text;
    write_overloaded_response(text, rid);
    emit(seq, std::move(text), Outcome::kShed);
  } else if (wake) {
    queue_cv_.notify_one();
  }
}

bool Server::can_take_front() const {
  // A claimed front is a stats fence in progress.
  return !queue_.empty() && !queue_.front().claimed;
}

void Server::worker_loop() {
  // Jobs taken per queue_mu_ acquisition: up to 8, and few enough while
  // the queue is shallow that every worker gets some of it.
  constexpr std::size_t kMaxBatch = 8;
  const std::size_t spread = 2 * static_cast<std::size_t>(options_.workers);
  std::vector<Job> batch;
  batch.reserve(kMaxBatch);
  for (;;) {
    bool fence = false;
    bool more = false;  // jobs left for another worker
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || can_take_front(); });
      if (!can_take_front()) {
        if (stopping_ && queue_.empty()) return;
        continue;  // fence in progress or spurious wake; re-evaluate
      }
      if (queue_.front().req.op == Op::kStats) {
        // Leave the fence at the front (claimed) so no later job starts
        // while the stats snapshot is taken.
        fence = true;
        queue_.front().claimed = true;
        batch.push_back(queue_.front());
      } else {
        const std::size_t n =
            std::min(kMaxBatch, 1 + queue_.size() / spread);
        // Never past a fence: it must wait for the jobs before it.
        while (batch.size() < n && !queue_.empty() &&
               queue_.front().req.op != Op::kStats) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
        more = can_take_front();
      }
    }
    if (more) queue_cv_.notify_one();
    if (fence) {
      await_output(batch.front().seq);
      process(batch.front());
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.pop_front();
      }
      queue_cv_.notify_all();
      space_cv_.notify_all();
    } else {
      space_cv_.notify_all();
      for (const Job& job : batch) process(job);
    }
    batch.clear();
  }
}

void Server::process(const Job& job) {
  if (options_.job_hook) options_.job_hook();
  const std::uint64_t rid = job.req.has_id ? job.req.id : job.seq;
  std::string text;
  Outcome outcome = Outcome::kError;
  try {
    switch (job.req.op) {
      case Op::kPlan:
        text = handle_plan(job, rid);
        outcome = Outcome::kPlan;
        break;
      case Op::kExecute:
        text = handle_execute(job, rid);
        outcome = Outcome::kExecute;
        break;
      case Op::kStats:
        text = handle_stats(job, rid);
        outcome = Outcome::kStats;
        break;
    }
  } catch (const std::exception& e) {
    text.clear();
    write_error_response(text, rid, public_error(e.what()));
    outcome = Outcome::kError;
  }
  if (outcome == Outcome::kPlan || outcome == Outcome::kExecute)
    latency_.record(elapsed_us(job.t0));
  emit(job.seq, std::move(text), outcome);
}

std::string Server::handle_plan(const Job& job, std::uint64_t rid) {
  const Request& req = job.req;
  const plan::Planner& planner = planner_for(req.machine);
  const machine::MachineConfig& mc = planner.machine();
  const dist::Kind kind = dist::kind_from_name(req.dist);
  const int s = req.sources != 0 ? req.sources : std::max(2, mc.p / 4);
  const std::vector<Rank> sources =
      dist::generate(kind, dist::Grid{mc.rows, mc.cols}, s, req.seed);
  const plan::Signature sig =
      plan::make_signature(mc, sources, req.len, req.dist, req.faults);
  const std::shared_ptr<const plan::Plan> plan = cache_.plan_shared(sig, [&] {
    if (options_.plan_hook) options_.plan_hook();
    return planner.plan(sources, req.len, req.dist, req.faults);
  });
  std::string text;
  write_plan_response(text, rid, req, *plan);
  return text;
}

std::string Server::handle_execute(const Job& job, std::uint64_t rid) {
  const Request& req = job.req;
  const plan::Planner& planner = planner_for(req.machine);
  const machine::MachineConfig& mc = planner.machine();
  const dist::Kind kind = dist::kind_from_name(req.dist);
  const int s = req.sources != 0 ? req.sources : std::max(2, mc.p / 4);
  const std::vector<Rank> sources =
      dist::generate(kind, dist::Grid{mc.rows, mc.cols}, s, req.seed);
  const plan::Signature sig =
      plan::make_signature(mc, sources, req.len, req.dist, req.faults);
  const std::shared_ptr<const plan::Plan> plan = cache_.plan_shared(sig, [&] {
    if (options_.plan_hook) options_.plan_hook();
    return planner.plan(sources, req.len, req.dist, req.faults);
  });

  // "[SEED:]SPEC", as in spb_plan --faults; the full text is the signature
  // context, the split parts drive the injected run.
  const fault::SeededSpec faults =
      fault::parse_seeded(req.faults, "\"faults\"");

  const stop::AlgorithmPtr algorithm = stop::find_algorithm(plan->best());
  const stop::Problem problem = stop::make_problem(mc, sources, req.len);
  const stop::RunResult result = stop::run(
      *algorithm, problem, stop::RunConfig{}.faults(faults.spec, faults.seed));
  std::string text;
  write_execute_response(text, rid, req, algorithm->name(), result);
  return text;
}

std::string Server::handle_stats(const Job& job, std::uint64_t rid) {
  // The fence in worker_loop() guarantees requests [0, seq) are written
  // and no later job is running: every snapshot below covers exactly the
  // requests submitted before this one.
  const bool det = job.req.deterministic;
  const RequestCounters counts = counters();
  const std::vector<plan::CacheStats> shards = cache_.shard_stats();
  plan::CacheStats total;
  for (const plan::CacheStats& s : shards) total += s;

  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("id", rid);
  w.field("ok", true);
  w.field("op", "stats");

  w.key("requests");
  w.begin_object();
  w.field("plan", counts.plan);
  w.field("execute", counts.execute);
  w.field("stats", counts.stats);
  w.field("errors", counts.errors);
  w.field("shed", counts.shed);
  w.end_object();

  w.key("cache");
  w.begin_object();
  w.field("shards", static_cast<std::uint64_t>(shards.size()));
  w.field("capacity", static_cast<std::uint64_t>(cache_.capacity()));
  w.field("size", static_cast<std::uint64_t>(cache_.size()));
  w.field("hits", total.hits);
  w.field("misses", total.misses);
  w.field("evictions", total.evictions);
  if (!det) w.field("coalesced", total.coalesced);
  w.field("hit_rate", total.hit_rate(), 4);
  w.key("per_shard");
  w.begin_array();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    w.begin_object();
    w.field("hits", shards[i].hits);
    w.field("misses", shards[i].misses);
    w.field("evictions", shards[i].evictions);
    if (!det) w.field("coalesced", shards[i].coalesced);
    w.field("size", static_cast<std::uint64_t>(cache_.shard_size(i)));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  if (!det) {
    std::uint64_t max_depth = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      max_depth = queue_max_depth_;
    }
    w.key("queue");
    w.begin_object();
    w.field("limit", static_cast<std::uint64_t>(options_.max_queue));
    w.field("max_depth", max_depth);
    w.end_object();

    const LatencyHistogram::Snapshot lat = latency_.snapshot();
    w.key("latency");
    w.begin_object();
    w.field("count", lat.total);
    w.field("p50_us", lat.percentile_us(50), 3);
    w.field("p95_us", lat.percentile_us(95), 3);
    w.field("p99_us", lat.percentile_us(99), 3);
    w.field("max_us", lat.max_us, 3);
    w.end_object();
  }
  w.end_object();
  os << "\n";
  return os.str();
}

const plan::Planner& Server::planner_for(const std::string& machine_name) {
  const std::string& key =
      machine_name.empty() ? options_.machine : machine_name;
  std::lock_guard<std::mutex> lock(planners_mu_);
  const auto it = planners_.find(key);
  if (it != planners_.end()) return *it->second;
  // machine::from_name throws CheckError on unknown machines; the caller
  // turns it into a structured error response.
  auto planner = std::make_unique<plan::Planner>(machine::from_name(key));
  return *planners_.emplace(key, std::move(planner)).first->second;
}

void Server::emit(std::uint64_t seq, std::string text, Outcome outcome) {
  std::unique_lock<std::mutex> lock(out_mu_);
  const std::size_t at = seq - ring_base_;
  if (at >= ring_.size()) ring_.resize(at + 1);
  ring_[at] = Slot{.text = std::move(text), .outcome = outcome, .ready = true};
  if (writing_ || !ring_.front().ready) return;
  // This thread completed the next response in order: it becomes the
  // writer until no ready run is left.  Other threads only fill slots.
  writing_ = true;
  do {
    // Counters move as the run is taken: a stats fence runs only once
    // next_out_ reaches it, and by then every earlier response is counted.
    while (!ring_.empty() && ring_.front().ready) {
      count(ring_.front().outcome);
      run_.push_back(std::move(ring_.front().text));
      ring_.pop_front();
      ++ring_base_;
    }
    lock.unlock();
    for (const std::string& line : run_) out_ << line;
    out_.flush();
    run_.clear();
    lock.lock();
    next_out_ = ring_base_;
  } while (!ring_.empty() && ring_.front().ready);
  writing_ = false;
  lock.unlock();
  out_cv_.notify_all();  // drain() and stats fences watch next_out_
}

void Server::count(Outcome outcome) {
  switch (outcome) {
    case Outcome::kPlan:
      ++counters_.plan;
      break;
    case Outcome::kExecute:
      ++counters_.execute;
      break;
    case Outcome::kStats:
      ++counters_.stats;
      break;
    case Outcome::kError:
      ++counters_.errors;
      break;
    case Outcome::kShed:
      ++counters_.shed;
      break;
  }
}

void Server::await_output(std::uint64_t seq) {
  std::unique_lock<std::mutex> lock(out_mu_);
  out_cv_.wait(lock, [this, seq] { return next_out_ == seq; });
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(out_mu_);
  out_cv_.wait(lock, [this] {
    return next_out_ == submitted_.load(std::memory_order_relaxed);
  });
}

std::uint64_t Server::submitted() const {
  return submitted_.load(std::memory_order_relaxed);
}

RequestCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(out_mu_);
  return counters_;
}

std::uint64_t Server::queue_max_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_max_depth_;
}

obs::ServeSection Server::report_section() const {
  obs::ServeSection section;
  section.machine = options_.machine;
  section.workers = options_.workers;

  const RequestCounters counts = counters();
  section.requests_plan = counts.plan;
  section.requests_execute = counts.execute;
  section.requests_stats = counts.stats;
  section.requests_error = counts.errors;
  section.requests_shed = counts.shed;

  section.queue_limit = options_.max_queue;
  section.queue_max_depth = queue_max_depth();

  const std::vector<plan::CacheStats> shards = cache_.shard_stats();
  section.cache_shards.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i)
    section.cache_shards.push_back(
        {.hits = shards[i].hits,
         .misses = shards[i].misses,
         .evictions = shards[i].evictions,
         .coalesced = shards[i].coalesced,
         .size = static_cast<std::uint64_t>(cache_.shard_size(i))});
  section.cache_capacity = static_cast<std::uint64_t>(cache_.capacity());

  const LatencyHistogram::Snapshot lat = latency_.snapshot();
  section.latency_count = lat.total;
  section.latency_p50_us = lat.percentile_us(50);
  section.latency_p95_us = lat.percentile_us(95);
  section.latency_p99_us = lat.percentile_us(99);
  section.latency_max_us = lat.max_us;
  return section;
}

}  // namespace spb::serve
