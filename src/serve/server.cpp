#include "serve/server.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <functional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "dist/distribution.h"
#include "dist/grid.h"
#include "dist/signature.h"
#include "fault/fault.h"
#include "machine/config.h"
#include "obs/json.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "stop/run.h"

namespace spb::serve {

namespace {

/// Jobs a worker takes per queue_mu_ acquisition, at most.
constexpr std::size_t kMaxBatch = 8;
/// try_lock attempts before a hot-path mutex acquisition blocks: a few
/// microseconds, many times the longest critical section under either
/// lock, so a thread sleeps in the kernel only when the holder was
/// descheduled.
constexpr int kLockSpins = 64;
/// Polls of the ring an idle worker makes before it parks, a pause apart:
/// about 20 us where a pause takes 17 ns (a recent Xeon), which bridges
/// the gaps of a saturating stream and leaves an idle server asleep
/// almost at once.
constexpr int kIdleSpins = 1024;
/// Slots each ring starts with; both double on demand.
constexpr std::size_t kInitialSlots = 64;
/// Capacity every response buffer starts with: room for any plan response
/// without its ranked table, so a buffer reused for a slightly longer one
/// never has to grow (a string that grows doubles its capacity).
constexpr std::size_t kResponseBytes = 192;
/// Response bytes a writer copies out of the ring per write, at most.
constexpr std::size_t kMaxRunBytes = 64 * 1024;
/// Longest line a job slot takes unparsed, so no slot's line buffer grows
/// past about twice this; longer lines are parsed on submission.
constexpr std::size_t kMaxUnparsedLine = 512;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Locks a hot-path mutex, spinning on try_lock for a bounded while
/// before blocking.
std::unique_lock<std::mutex> lock_hot(std::mutex& mu) {
  for (int i = 0; i < kLockSpins; ++i) {
    if (mu.try_lock()) return std::unique_lock<std::mutex>(mu, std::adopt_lock);
    cpu_relax();
  }
  return std::unique_lock<std::mutex>(mu);
}

/// Doubles a full power-of-two ring indexed by sequence number: entry i of
/// [first, first + size) moves to position i mod the new size.
template <typename T>
void double_ring(std::vector<T>& ring, std::uint64_t first) {
  std::vector<T> grown(2 * ring.size());
  for (std::uint64_t i = first; i != first + ring.size(); ++i)
    grown[i & (grown.size() - 1)] = std::move(ring[i & (ring.size() - 1)]);
  ring.swap(grown);
}

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Whether a line may be admitted unparsed: it is short enough for a job
/// slot, and it cannot be a stats fence.  A request whose op is "stats"
/// spells the word out or escapes it, so a line with neither the bytes
/// "stats" nor a backslash is never one — the screen is exact.
bool may_admit_unparsed(std::string_view line) {
  return line.size() <= kMaxUnparsedLine &&
         line.find('\\') == std::string_view::npos &&
         line.find("stats") == std::string_view::npos;
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

/// What a request template (machine, dist, sources, seed, faults) resolves
/// to: the whole plan signature but its length bucket, the only field
/// "len" moves, and what regenerating the sources takes.
struct Server::Template {
  const plan::Planner* planner = nullptr;  // planners are never erased
  dist::Kind kind = dist::Kind::kRow;
  int sources = 0;  // the resolved source count
  plan::Signature sig;

  std::vector<Rank> generate(std::uint64_t seed) const {
    const machine::MachineConfig& mc = planner->machine();
    return dist::generate(kind, dist::Grid{mc.rows, mc.cols}, sources, seed);
  }
};

/// One worker's template memo: a fixed 4-way set-associative table keyed
/// on the request fields as sent, so "machine":"" and the default
/// machine's name are two keys for one template.  Only successfully
/// resolved templates go in, so an error is recomputed every time.
class Server::TemplateMemo {
 public:
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kSets = kTemplateMemoEntries / kWays;
  static constexpr std::size_t kMaxText = 64;

  struct Key {
    std::uint64_t hash = 0;
    std::uint64_t seed = 0;
    int sources = 0;
    std::uint8_t machine_len = 0;
    std::uint8_t dist_len = 0;
    std::uint8_t faults_len = 0;
    std::array<char, kMaxText> text{};  // machine, dist, faults in a row

    std::size_t text_len() const {
      return std::size_t{machine_len} + dist_len + faults_len;
    }
    bool operator==(const Key& o) const {
      return hash == o.hash && seed == o.seed && sources == o.sources &&
             machine_len == o.machine_len && dist_len == o.dist_len &&
             faults_len == o.faults_len &&
             std::memcmp(text.data(), o.text.data(), text_len()) == 0;
    }
  };

  /// The key of `req`; false when its text is too long to memoize.
  static bool key_of(const Request& req, Key& key) {
    const std::size_t len =
        req.machine.size() + req.dist.size() + req.faults.size();
    if (len > kMaxText) return false;
    key.seed = req.seed;
    key.sources = req.sources;
    key.machine_len = static_cast<std::uint8_t>(req.machine.size());
    key.dist_len = static_cast<std::uint8_t>(req.dist.size());
    key.faults_len = static_cast<std::uint8_t>(req.faults.size());
    char* at = key.text.data();
    for (const std::string* field : {&req.machine, &req.dist, &req.faults})
      at = std::copy(field->begin(), field->end(), at);
    std::uint64_t h = std::hash<std::string_view>{}({key.text.data(), len});
    h = dist::hash_mix(h, key.seed);
    h = dist::hash_mix(h, static_cast<std::uint64_t>(key.sources));
    h = dist::hash_mix(h, std::uint64_t{key.machine_len} << 16 |
                              std::uint64_t{key.dist_len} << 8 |
                              key.faults_len);
    key.hash = h;
    return true;
  }

  const Template* find(const Key& key) const {
    const std::size_t set = key.hash % kSets;
    for (std::size_t way = 0; way < kWays; ++way) {
      const Entry& e = entries_[set * kWays + way];
      if (e.used && e.key == key) return &e.value;
    }
    return nullptr;
  }

  /// Fills a free way of the key's set, else replaces the set's oldest.
  void insert(const Key& key, const Template& value) {
    const std::size_t set = key.hash % kSets;
    std::size_t way = 0;
    while (way < kWays && entries_[set * kWays + way].used) ++way;
    if (way == kWays) {
      way = next_victim_[set];
      next_victim_[set] = static_cast<std::uint8_t>((way + 1) % kWays);
    }
    entries_[set * kWays + way] = {.key = key, .value = value, .used = true};
  }

 private:
  struct Entry {
    Key key;
    Template value;
    bool used = false;
  };
  std::array<Entry, kTemplateMemoEntries> entries_{};
  std::array<std::uint8_t, kSets> next_victim_{};
};

/// Everything one worker owns: only its own thread touches it, except
/// the histogram, which stats and report queries read.
struct Server::Worker {
  TemplateMemo memo;
  LatencyHistogram latency;
  std::array<Job, kMaxBatch> batch;
  /// The batch's responses, emitted together: one out_mu_ acquisition per
  /// batch.  emit() moves each text into the output ring and hands back a
  /// spare string that an earlier response was written from, so
  /// formatting reuses capacity instead of allocating.
  std::array<Response, kMaxBatch> out;
};

Server::Server(ServerOptions options, std::ostream& out)
    : options_(std::move(options)),
      out_(out),
      cache_(options_.cache_capacity, options_.cache_shards) {
  SPB_REQUIRE(options_.workers >= 1, "serve needs at least one worker");
  SPB_REQUIRE(options_.max_queue >= 1, "serve needs max_queue >= 1");
  planner_for(options_.machine);  // resolve the default machine eagerly
  jobs_.resize(std::bit_ceil(std::min<std::uint64_t>(
      options_.max_queue, kInitialSlots)));
  ring_.resize(kInitialSlots);
  // Spinners beyond the cores the submitter leaves free would only take
  // CPU from it and from the workers that have jobs.
  const unsigned cores = std::thread::hardware_concurrency();
  spin_limit_ = static_cast<int>(std::min<unsigned>(
      static_cast<unsigned>(options_.workers), cores > 1 ? cores - 1 : 0));
  const auto n = static_cast<std::size_t>(options_.workers);
  worker_state_.reserve(n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    worker_state_.push_back(std::make_unique<Worker>());
    workers_.emplace_back(
        [this, w = worker_state_.back().get()] { worker_loop(*w); });
  }
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

bool Server::parse_into(std::string_view line, std::uint64_t seq,
                        Request& req, Response& r) {
  const std::string parse_error = parse_request(line, req);
  if (parse_error.empty()) return true;
  // The request's own id when the JSON is well formed, else its sequence
  // number.
  write_error_response(r.text, req.has_id ? req.id : seq, parse_error);
  r.outcome = Outcome::kError;
  return false;
}

void Server::submit_internal(std::string_view line, bool block) {
  const std::uint64_t seq = submitted_.fetch_add(1);
  // With several workers, the one that takes the job parses the line; a
  // lone worker would then do everything while the submitter idles, so
  // with one worker the submitter keeps parsing.
  const bool unparsed = options_.workers > 1 && may_admit_unparsed(line);
  Request req;
  Response r{.seq = seq, .outcome = Outcome::kError, .text = {}};
  if (!unparsed && !parse_into(line, seq, req, r)) {
    emit({&r, 1});
    return;
  }

  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock = lock_hot(queue_mu_);
    if (depth() >= options_.max_queue) {
      if (!block) {
        // Load-shed: answer now, explicitly — never a silent drop.  A line
        // not parsed yet is parsed first, so a malformed one gets its
        // parse error, not "overloaded".
        lock.unlock();
        if (!unparsed || parse_into(line, seq, req, r)) {
          write_overloaded_response(r.text, req.has_id ? req.id : seq);
          r.outcome = Outcome::kShed;
        }
        emit({&r, 1});
        return;
      }
      ++space_waiters_;
      space_cv_.wait(lock,
                     [this] { return depth() < options_.max_queue; });
      --space_waiters_;
      t0 = std::chrono::steady_clock::now();
    }
    if (depth() == jobs_.size()) double_ring(jobs_, head_);
    Job& job = job_at(tail_);
    job.seq = seq;
    job.parsed = !unparsed;
    job.fence = !unparsed && req.op == Op::kStats;
    if (unparsed)
      job.line.assign(line);
    else
      job.req = std::move(req);
    job.t0 = t0;
    ++tail_;
    if (depth() > queue_max_depth_) queue_max_depth_ = depth();
    publish_takeable();
    wake = claim_wake();
  }
  if (wake) queue_cv_.notify_one();
}

bool Server::can_take_front() const {
  // A claimed front is a stats fence in progress.
  return head_ != tail_ && !fence_claimed_;
}

void Server::publish_takeable() {
  // Stored only when it changes, so polling workers keep their cached
  // copy while jobs stay available.
  const bool takeable = can_take_front();
  if (takeable_.load(std::memory_order_relaxed) != takeable)
    takeable_.store(takeable, std::memory_order_relaxed);
}

bool Server::claim_wake() {
  // Wake a parked worker only when a job waits that no spinning worker is
  // about to take, and only one at a time: the woken worker passes the
  // wake-up on if it leaves jobs behind, so a backlog recruits workers
  // without a futex wake per submission.
  if (parked_ == 0 || spinning_ > 0 || wake_pending_ || !can_take_front())
    return false;
  wake_pending_ = true;
  return true;
}

bool Server::spin_for_job() const {
  for (int i = 0; i < kIdleSpins; ++i) {
    if (takeable_.load(std::memory_order_relaxed)) return true;
    cpu_relax();
  }
  return false;
}

bool Server::await_job(std::unique_lock<std::mutex>& lock) {
  // Until a job can be taken: poll takeable_ without the lock while fewer
  // than spin_limit_ workers do, then park.  False once the server stops.
  bool spun_out = false;  // this idle stretch has used its spin budget
  while (!can_take_front()) {
    if (stopping_) return false;
    if (!spun_out && spinning_ < spin_limit_) {
      ++spinning_;
      lock.unlock();
      spun_out = !spin_for_job();
      lock = lock_hot(queue_mu_);
      --spinning_;
      continue;
    }
    // No predicate: every wake-up, even one whose job another worker took
    // first, must clear wake_pending_, or the next job could wait while
    // every worker is parked.
    ++parked_;
    queue_cv_.wait(lock);
    --parked_;
    wake_pending_ = false;
    spun_out = false;
  }
  return true;
}

void Server::worker_loop(Worker& w) {
  // Jobs taken per queue_mu_ acquisition: up to kMaxBatch, and few enough
  // while the queue is shallow that every worker gets some of it.
  const std::size_t spread = 2 * static_cast<std::size_t>(options_.workers);
  for (;;) {
    std::size_t taken = 0;
    bool fence = false;
    bool wake = false;
    bool space = false;
    {
      std::unique_lock<std::mutex> lock = lock_hot(queue_mu_);
      if (!await_job(lock)) return;
      if (job_at(head_).fence) {
        // Leave the fence in its slot, claimed, so no later job starts
        // while the stats snapshot is taken.
        fence = true;
        fence_claimed_ = true;
        w.batch[0] = std::move(job_at(head_));
      } else {
        const std::size_t n = std::min(kMaxBatch, 1 + depth() / spread);
        // Never past a fence: it must wait for the jobs before it.
        while (taken < n && head_ != tail_ && !job_at(head_).fence)
          w.batch[taken++] = std::move(job_at(head_++));
        space = space_waiters_ > 0;
      }
      publish_takeable();
      wake = claim_wake();
    }
    if (wake) queue_cv_.notify_one();
    if (space) space_cv_.notify_all();
    if (!fence) {
      for (std::size_t i = 0; i < taken; ++i)
        process(w.batch[i], w, w.out[i]);
      emit({w.out.data(), taken});
      continue;
    }
    await_output(w.batch[0].seq);
    process(w.batch[0], w, w.out[0]);
    emit({w.out.data(), 1});
    {
      std::unique_lock<std::mutex> lock = lock_hot(queue_mu_);
      ++head_;
      fence_claimed_ = false;
      publish_takeable();
      wake = claim_wake();
      space = space_waiters_ > 0;
    }
    if (wake) queue_cv_.notify_one();
    if (space) space_cv_.notify_all();
  }
}

void Server::process(Job& job, Worker& w, Response& r) {
  if (options_.job_hook) options_.job_hook();
  r.seq = job.seq;
  r.text.clear();
  r.text.reserve(kResponseBytes);
  if (!job.parsed && !parse_into(job.line, job.seq, job.req, r)) return;
  const Request& req = job.req;
  const std::uint64_t rid = req.has_id ? req.id : job.seq;
  try {
    switch (req.op) {
      case Op::kPlan:
        handle_plan(req, rid, w, r.text);
        r.outcome = Outcome::kPlan;
        break;
      case Op::kExecute:
        handle_execute(req, rid, w, r.text);
        r.outcome = Outcome::kExecute;
        break;
      case Op::kStats:
        handle_stats(req, rid, r.text);
        r.outcome = Outcome::kStats;
        break;
    }
  } catch (const std::exception& e) {
    r.text.clear();
    write_error_response(r.text, rid, public_error(e.what()));
    r.outcome = Outcome::kError;
  }
  if (r.outcome == Outcome::kPlan || r.outcome == Outcome::kExecute)
    w.latency.record(elapsed_us(job.t0));
}

Server::Template Server::resolve(const Request& req,
                                 std::vector<Rank>& sources) {
  Template t;
  t.planner = &planner_for(req.machine);
  const machine::MachineConfig& mc = t.planner->machine();
  t.kind = dist::kind_from_name(req.dist);
  t.sources = req.sources != 0 ? req.sources : std::max(2, mc.p / 4);
  sources = t.generate(req.seed);
  t.sig = plan::make_signature(mc, sources, req.len, req.dist, req.faults);
  return t;
}

std::shared_ptr<const plan::Plan> Server::cached_plan(
    const Request& req, Worker& w, Template& t, std::vector<Rank>& sources) {
  // On a memo hit the sources are not generated at all unless the cache
  // misses and the planner needs them.
  TemplateMemo::Key key;
  const bool memoizable = TemplateMemo::key_of(req, key);
  if (const Template* hit = memoizable ? w.memo.find(key) : nullptr) {
    t = *hit;
  } else {
    t = resolve(req, sources);  // throws before anything is memoized
    if (memoizable) w.memo.insert(key, t);
  }
  plan::Signature sig = t.sig;
  sig.l_bucket = plan::length_bucket(req.len);
  return cache_.plan_shared(sig, [&] {
    if (options_.plan_hook) options_.plan_hook();
    if (sources.empty()) sources = t.generate(req.seed);
    return t.planner->plan(sources, req.len, req.dist, req.faults);
  });
}

void Server::handle_plan(const Request& req, std::uint64_t rid, Worker& w,
                         std::string& text) {
  Template t;
  std::vector<Rank> sources;
  const std::shared_ptr<const plan::Plan> plan =
      cached_plan(req, w, t, sources);
  write_plan_response(text, rid, req, *plan);
}

void Server::handle_execute(const Request& req, std::uint64_t rid,
                            Worker& w, std::string& text) {
  Template t;
  std::vector<Rank> sources;
  const std::shared_ptr<const plan::Plan> plan =
      cached_plan(req, w, t, sources);
  if (sources.empty()) sources = t.generate(req.seed);

  // "[SEED:]SPEC", as in spb_plan --faults; the full text is the signature
  // context, the split parts drive the injected run.
  const fault::SeededSpec faults =
      fault::parse_seeded(req.faults, "\"faults\"");

  const stop::AlgorithmPtr algorithm = stop::find_algorithm(plan->best());
  const stop::Problem problem =
      stop::make_problem(t.planner->machine(), sources, req.len);
  const stop::RunResult result = stop::run(
      *algorithm, problem, stop::RunConfig{}.faults(faults.spec, faults.seed));
  write_execute_response(text, rid, req, algorithm->name(), result);
}

void Server::handle_stats(const Request& req, std::uint64_t rid,
                          std::string& text) {
  // The fence in worker_loop() guarantees requests [0, seq) are written
  // and no later job is running: every snapshot below covers exactly the
  // requests submitted before this one.
  const bool det = req.deterministic;
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
    w.key("queue");
    w.begin_object();
    w.field("limit", static_cast<std::uint64_t>(options_.max_queue));
    w.field("max_depth", queue_max_depth());
    w.end_object();

    const LatencyHistogram::Snapshot lat = latency();
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
  text = os.str();
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

void Server::emit(std::span<Response> responses) {
  std::unique_lock<std::mutex> lock = lock_hot(out_mu_);
  for (Response& r : responses) {
    while (r.seq - ring_base_ >= ring_.size()) double_ring(ring_, ring_base_);
    Slot& slot = slot_of(r.seq);
    slot.text.swap(r.text);
    if (!spare_.empty()) {
      // The caller gets a written response's string back, capacity and
      // all, for its next response.
      r.text.swap(spare_.back());
      spare_.pop_back();
    }
    slot.outcome = r.outcome;
    slot.ready = true;
  }
  if (writing_ || !slot_of(ring_base_).ready) return;
  // This thread completed the next response in order: it becomes the
  // writer until no ready run is left.  Other threads only fill slots.
  writing_ = true;
  do {
    // Counters move as the run is taken: a stats fence runs only once
    // next_out_ reaches it, and by then every earlier response is counted.
    while (slot_of(ring_base_).ready && run_.size() < kMaxRunBytes) {
      Slot& front = slot_of(ring_base_);
      count(front.outcome);
      run_ += front.text;
      front.ready = false;
      ++ring_base_;
      front.text.clear();
      spare_.emplace_back().swap(front.text);
    }
    lock.unlock();
    out_.write(run_.data(), static_cast<std::streamsize>(run_.size()));
    out_.flush();
    run_.clear();
    lock = lock_hot(out_mu_);
    next_out_ = ring_base_;
  } while (slot_of(ring_base_).ready);
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

LatencyHistogram::Snapshot Server::latency() const {
  LatencyHistogram::Snapshot sum;
  for (const std::unique_ptr<Worker>& w : worker_state_)
    sum += w->latency.snapshot();
  return sum;
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

  const LatencyHistogram::Snapshot lat = latency();
  section.latency_count = lat.total;
  section.latency_p50_us = lat.percentile_us(50);
  section.latency_p95_us = lat.percentile_us(95);
  section.latency_p99_us = lat.percentile_us(99);
  section.latency_max_us = lat.max_us;
  return section;
}

}  // namespace spb::serve
