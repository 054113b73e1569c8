#include "sim/sharded.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace spb::sim {

namespace {

/// Which engine/shard this thread is currently draining.  Thread-local by
/// design: each drain worker needs its own cursor, and the serial Simulator
/// path never touches it.
struct RunningShard {
  ShardedEngine* engine = nullptr;
  SimTime now = 0;
  int index = -1;
};
// Each worker owns its own copy, so there is no shared mutable state here.
// NOLINTNEXTLINE(spb-mutable-global): per-thread drain cursor by design
thread_local RunningShard tls_running;

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::infinity();

}  // namespace

ShardedEngine::ShardedEngine(int shards, double window_us, int threads,
                             int cores)
    : shards_(static_cast<std::size_t>(std::max(shards, 1))),
      window_(window_us),
      threads_(std::clamp(threads, 1, std::max(shards, 1))),
      cores_(std::max(1, cores > 0 ? cores
                                   : static_cast<int>(
                                         std::thread::hardware_concurrency()))) {
  SPB_REQUIRE(shards >= 1, "ShardedEngine needs at least one shard");
  SPB_REQUIRE(shards <= 0xffff, "ShardedEngine supports at most 65535 shards "
                                "(got " << shards << ")");
  SPB_REQUIRE(cores >= 0, "negative core count " << cores);
  SPB_REQUIRE(window_us > 0,
              "ShardedEngine needs a positive lookahead window (got "
                  << window_us << " us); zero lookahead means serial");
  // Default delay matrix: the uniform self-lookahead — PR 7's global
  // windows — until set_cross_delays() widens the off-diagonal.
  cross_delays_.assign(shards_.size() * shards_.size(), window_);
  busy_list_.reserve(shards_.size());
  active_list_.reserve(shards_.size());
  eff_.assign(shards_.size(), 0);
}

ShardedEngine::~ShardedEngine() { stop_pool(); }

void ShardedEngine::set_cross_delays(const std::vector<double>& delays) {
  SPB_REQUIRE(!ran_, "set_cross_delays() after run()");
  const auto k = shards_.size();
  SPB_REQUIRE(delays.size() == k * k,
              "delay matrix must be shards^2 = " << k * k << " entries (got "
                                                 << delays.size() << ")");
  // Validate before touching cross_delays_: a throw must leave the engine
  // on its previous (consistent) matrix.
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t s = 0; s < k; ++s) {
      if (r == s) continue;
      SPB_REQUIRE(delays[r * k + s] >= window_,
                  "cross delay (" << r << ", " << s << ") = "
                                  << delays[r * k + s]
                                  << " us is below the self lookahead "
                                  << window_ << " us");
    }
  }
  cross_delays_ = delays;
  for (std::size_t r = 0; r < k; ++r) cross_delays_[r * k + r] = window_;
  // Min-plus closure: effects can chain through intermediate shards (r
  // sends to u, whose reaction sends to s), so the planning bound for
  // (r, s) must not exceed any path sum.  Every edge is >= window_ > 0,
  // so closed entries stay >= window_ and the Floyd-Warshall pass
  // terminates with a true shortest-path matrix over <= 16 shards.
  for (std::size_t via = 0; via < k; ++via)
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t s = 0; s < k; ++s)
        if (r != s)
          cross_delays_[r * k + s] =
              std::min(cross_delays_[r * k + s],
                       cross_delays_[r * k + via] + cross_delays_[via * k + s]);
}

double ShardedEngine::min_cross_delay_us() const {
  if (shard_count() < 2) return window_;
  double m = kNoEvent;
  for (int r = 0; r < shard_count(); ++r)
    for (int s = 0; s < shard_count(); ++s)
      if (r != s) m = std::min(m, delay(r, s));
  return m;
}

double ShardedEngine::max_cross_delay_us() const {
  if (shard_count() < 2) return window_;
  double m = 0;
  for (int r = 0; r < shard_count(); ++r)
    for (int s = 0; s < shard_count(); ++s)
      if (r != s) m = std::max(m, delay(r, s));
  return m;
}

SimTime ShardedEngine::now() const {
  SPB_CHECK_MSG(tls_running.engine == this && tls_running.index >= 0,
                "ShardedEngine::now() outside an event callback");
  return tls_running.now;
}

int ShardedEngine::current_shard() const {
  return tls_running.engine == this ? tls_running.index : -1;
}

void ShardedEngine::note_stage(SimTime initiate) {
  SPB_CHECK_MSG(tls_running.engine == this && tls_running.index >= 0,
                "ShardedEngine::note_stage() outside an event callback");
  SPB_REQUIRE(initiate >= tls_running.now,
              "stage initiated in the past (initiate=" << initiate << ", now="
                                                       << tls_running.now
                                                       << ")");
  Shard& s = shards_[static_cast<std::size_t>(tls_running.index)];
  // The transfer's effects may echo back onto this shard as soon as
  // initiate + window_; the drain loop re-reads limit, so the cap takes
  // effect immediately.  Drains are time-ordered, so everything already
  // executed this window is <= initiate and stays sound.
  s.limit = std::min(s.limit, initiate + window_);
  s.staged.push_back(initiate);
  ++s.staged_xfers;
}

EventQueue& ShardedEngine::target(SimTime t, int shard) {
  SPB_REQUIRE(shard >= 0 && shard < shard_count(),
              "shard " << shard << " out of range");
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  if (tls_running.engine == this && tls_running.index >= 0) {
    // Drain context: a shard may only extend its own timeline.
    SPB_REQUIRE(tls_running.index == shard,
                "cross-shard push (from shard "
                    << tls_running.index << " to " << shard
                    << ") inside a window — cross-shard events must be "
                       "staged and applied at the barrier");
    SPB_REQUIRE(t >= tls_running.now, "cannot schedule an event in the past "
                                          << "(t=" << t << ", now="
                                          << tls_running.now << ")");
  } else {
    // Barrier (or pre-run) context: any shard, but never inside the span
    // that shard already drained — that is exactly the conservative
    // sub-window contract.
    SPB_REQUIRE(t >= s.frontier,
                "barrier push at t=" << t << " violates shard " << shard
                                     << "'s frontier " << s.frontier);
  }
  return s.queue;
}

void ShardedEngine::at(SimTime t, int shard, EventFn fn) {
  target(t, shard).push(t, std::move(fn));
}

void ShardedEngine::resume_at(SimTime t, int shard,
                              std::coroutine_handle<> h) {
  target(t, shard).push_resume(t, h);
}

void ShardedEngine::deliver_at(SimTime t, int shard, std::uint32_t slot) {
  SPB_REQUIRE(deliver_.fn != nullptr,
              "deliver_at() without a delivery hook installed");
  target(t, shard).push_deliver(t, slot);
}

bool ShardedEngine::plan_window() {
  // eff_r: the earliest time shard r could still initiate a cross-shard
  // effect — its queue head or the floor of its held (staged but not yet
  // applied) transfers.  Everything below is a pure function of queue and
  // staging state, so identical for every worker count.
  const int k = shard_count();
  SimTime min_held = kNoEvent;
  // Only shards with a finite eff (pending events or held transfers) can
  // constrain anyone; collecting them first turns the O(k^2) bound scan
  // into O(k * active) — most windows have a handful of active shards.
  active_list_.clear();
  for (int r = 0; r < k; ++r) {
    Shard& s = shards_[static_cast<std::size_t>(r)];
    const SimTime top = s.queue.empty() ? kNoEvent : s.queue.top_time();
    const SimTime held = held_floor(s);
    eff_[static_cast<std::size_t>(r)] = std::min(top, held);
    min_held = std::min(min_held, held);
    if (top != kNoEvent || held != kNoEvent) active_list_.push_back(r);
  }
  if (active_list_.empty()) return false;

  busy_list_.clear();
  ++stats_.windows;
  SimTime horizon = kNoEvent;
  for (int s = 0; s < k; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    SimTime end = held_floor(sh) + window_;
    for (const int r : active_list_) {
      if (r == s) continue;
      end = std::min(end, eff_[static_cast<std::size_t>(r)] + delay(r, s));
    }
    sh.limit = end;
    horizon = std::min(horizon, end);
    if (!sh.queue.empty() && sh.queue.top_time() < end) {
      busy_list_.push_back(s);
      ++sh.busy_windows;
    } else {
      ++sh.idle_windows;
    }
  }
  // A window always makes progress: either some shard's head is below its
  // end (it drains >= 1 event), or every end exceeds every head — which
  // forces the global minimum eff to be a held transfer's floor, and that
  // transfer is consumed by this barrier because safe_horizon lands at
  // least one cross-delay past it.
  SPB_CHECK_MSG(!busy_list_.empty() || horizon > min_held,
                "sub-window plan made no progress");
  return true;
}

void ShardedEngine::drain(int index) {
  Shard& s = shards_[static_cast<std::size_t>(index)];
  tls_running = RunningShard{this, s.now, index};
  std::uint64_t n = 0;
  try {
    // s.limit may shrink mid-drain (note_stage); re-read it every event.
    while (!s.queue.empty() && s.queue.top_time() < s.limit) {
      Event e = s.queue.pop();
      s.now = e.time;
      tls_running.now = e.time;
      ++n;
      e.run(deliver_);
    }
  } catch (...) {
    if (s.error == nullptr) s.error = std::current_exception();
  }
  tls_running = RunningShard{};
  s.executed += n;
}

namespace {

constexpr std::uint64_t kClaimField = 0xffff;

std::uint64_t claim_word(std::uint32_t epoch, int busy) {
  return std::uint64_t{epoch} << 32 | static_cast<std::uint64_t>(busy) << 16;
}

}  // namespace

void ShardedEngine::claim_and_drain(std::uint32_t epoch) {
  std::uint64_t w = claim_.load();
  for (;;) {
    const std::uint64_t next = w & kClaimField;
    const std::uint64_t busy = (w >> 16) & kClaimField;
    // A later window's word, or nothing left to claim in this one.
    if (static_cast<std::uint32_t>(w >> 32) != epoch || next >= busy) return;
    if (!claim_.compare_exchange_weak(w, w + 1)) continue;
    // The claim succeeded in `epoch`, whose busy list stays put until
    // this drain is counted done.
    drain(busy_list_[static_cast<std::size_t>(next)]);
    if (done_.fetch_add(1) + 1 == static_cast<int>(busy)) {
      // The window's last drain: wake the coordinator.  Taking the mutex
      // orders this against its predicate check.
      { const std::lock_guard<std::mutex> lk(mu_); }
      cv_done_.notify_all();
    }
    w = claim_.load();
  }
}

void ShardedEngine::run_window() {
  const int busy = static_cast<int>(busy_list_.size());
  if (busy == 0) return;
  // Engagement is occupancy-driven: never more workers than there are
  // other busy shards, never more than the host has spare cores.  Purely a
  // wall-clock policy — drains are mutually independent, so who drains
  // what cannot change results.
  const int engage =
      std::min({static_cast<int>(pool_.size()), busy - 1, cores_ - 1});
  if (engage <= 0) {
    // Inline mode: drain the busy shards in index order on this thread.
    for (int i = 0; i < busy; ++i)
      drain(busy_list_[static_cast<std::size_t>(i)]);
    return;
  }
  std::uint32_t epoch;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    epoch = ++epoch_;
    done_ = 0;
    claim_ = claim_word(epoch, busy);
  }
  for (int i = 0; i < engage; ++i) cv_start_.notify_one();
  claim_and_drain(epoch);
  // Every index was claimed in this epoch (the claim loop only returns
  // once next >= busy), so done_ == busy means every drain has finished.
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [this, busy] { return done_ == busy; });
}

void ShardedEngine::worker_loop() {
  std::uint32_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    claim_and_drain(seen);
  }
}

void ShardedEngine::stop_pool() {
  if (pool_.empty()) return;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
}

SimTime ShardedEngine::run(const BarrierFn& barrier) {
  SPB_REQUIRE(!ran_, "ShardedEngine::run() is one-shot");
  ran_ = true;
  // A single-core host can never engage a worker (run_window caps engage
  // at cores_ - 1), so don't pay the spawns there; pool size is wall-clock
  // policy only and cannot affect results.
  const int spawn = std::min(threads_, cores_) - 1;
  if (spawn > 0) {
    pool_.reserve(static_cast<std::size_t>(spawn));
    for (int i = 0; i < spawn; ++i)
      pool_.emplace_back([this] { worker_loop(); });
  }
  while (plan_window()) {
    run_window();
    for (const Shard& s : shards_) {
      if (s.error == nullptr) continue;
      stop_pool();
      std::rethrow_exception(s.error);
    }
    // Lock in how far each shard got (limit may have shrunk mid-drain) and
    // the staging-safe horizon the barrier may consume up to.  Frontiers
    // are monotone: each shard's eff floor only moves forward, so planned
    // ends never step back — the max is a safety net, not a correction.
    SimTime safe = kNoEvent;
    std::uint64_t held = 0;
    for (Shard& s : shards_) {
      s.frontier = std::max(s.frontier, s.limit);
      safe = std::min(safe, s.frontier);
    }
    safe_horizon_ = safe;
    if (barrier) barrier();
    // The barrier consumed exactly the staged transfers initiated before
    // safe_horizon_ (in its own canonical order); prune our mirror of the
    // staging stream the same way so held floors stay in sync.
    for (Shard& s : shards_) {
      while (s.staged_cursor < s.staged.size() &&
             s.staged[s.staged_cursor] < safe_horizon_)
        ++s.staged_cursor;
      if (s.staged_cursor == s.staged.size()) {
        s.staged.clear();
        s.staged_cursor = 0;
      }
      held += s.staged.size() - s.staged_cursor;
    }
    stats_.held_xfers += held;
  }
  stop_pool();
  SimTime final_time = 0;
  for (const Shard& s : shards_) final_time = std::max(final_time, s.now);
  return final_time;
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.executed;
  return total;
}

std::size_t ShardedEngine::peak_queue_depth() const {
  std::size_t peak = 0;
  for (const Shard& s : shards_) peak = std::max(peak, s.queue.peak_size());
  return peak;
}

EngineStats ShardedEngine::stats() const {
  EngineStats out;
  out.windows = stats_.windows;
  out.held_xfers = stats_.held_xfers;
  std::uint64_t busy = 0;
  std::uint64_t idle = 0;
  out.shards.reserve(shards_.size());
  for (const Shard& s : shards_) {
    out.shards.push_back(ShardStats{s.executed, s.queue.peak_size(),
                                    s.busy_windows, s.idle_windows});
    busy += s.busy_windows;
    idle += s.idle_windows;
    out.staged_xfers += s.staged_xfers;
  }
  // Idle slots are counted directly per shard (never derived by
  // subtraction, which would wrap if a count were ever lost); the
  // busy/idle split must still tile the windows x shards grid exactly.
  SPB_REQUIRE(busy + idle ==
                  stats_.windows * static_cast<std::uint64_t>(shards_.size()),
              "shard busy/idle window counts (" << busy << " + " << idle
                                                << ") do not tile "
                                                << stats_.windows << " x "
                                                << shards_.size()
                                                << " shard-windows");
  out.idle_shard_windows = idle;
  return out;
}

}  // namespace spb::sim
