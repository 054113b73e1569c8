// Deterministic conservative parallel discrete-event engine (PR 7,
// sub-window lookahead PR 10).
//
// The event space is partitioned into `shards` (one per machine region —
// see net/regions.h), each with its own EventQueue and clock.  Time
// advances in windows, but each shard gets its own window end: shard s may
// drain up to
//
//   end_s = min( min_{r != s}( eff_r + delay(r, s) ),
//                held_min_s + self_delay )
//
// where eff_r is the earliest time shard r could still initiate a
// cross-shard effect (its queue head, or the initiation time of a staged
// transfer the barrier is still holding back), delay(r, s) is the caller's
// minimum region-to-region effect latency (set_cross_delays; defaults to
// the uniform self_delay = window_us, which reproduces PR 7's global
// windows), and the second term bounds s by its own held transfers' echo
// effects.  While draining, a shard that stages its first cross-shard
// transfer of the window (note_stage) dynamically caps its own end at
// initiate + self_delay, since that transfer's barrier-time effects may
// land on the staging shard itself that soon.  A shard whose neighbours
// are idle therefore drains far past the old global horizon — in the
// single-busy-shard limit it runs windowless, like the serial loop.
//
// Within a window every shard drains its own queue independently — in
// (time, per-shard insertion) order, exactly like the serial Simulator —
// and may only schedule follow-up events into *itself*.  Cross-shard
// effects are deferred: the caller stages them during the window (telling
// the engine via note_stage) and applies them in the single-threaded
// `barrier` callback that runs between windows, in a canonical order of
// its own choosing.  Because shards now drain to different horizons, the
// barrier must only apply transfers initiated before safe_horizon() — the
// minimum shard frontier — and hold the rest for a later barrier (the
// engine tracks held initiations itself from the note_stage stream).  The
// at() assertion is per-shard: a barrier push onto shard s must land at or
// after frontier(s), the furthest point s has drained to.
//
// Soundness of the sub-windows (the full argument is DESIGN.md §12): the
// caller promises that a transfer initiated at time I on shard r lands on
// shard s != r no earlier than I + delay(r, s) and echoes onto r itself no
// earlier than I + self_delay.  set_cross_delays closes the matrix under
// min-plus composition (delay(u,s) <= delay(u,r) + delay(r,s)), so the
// bound holds along any chain of effects, and every future initiation is
// itself bounded below by some eff_r the planner already accounted for.
//
// Determinism: shard count, per-shard window ends, and the barrier's
// canonical order are all pure functions of queue/staging state — never of
// the worker-thread count — and each shard's queue is only ever touched by
// one thread at a time (its drainer inside a window, the barrier between
// windows).  Results are therefore byte-identical for every `threads >=
// 1`; threads only changes wall-clock time.  Scheduling is
// occupancy-driven: each window builds the list of shards that actually
// have work, and only min(threads - 1, busy - 1, cores - 1) workers are
// woken for it (a window with one busy shard drains inline with no
// locking), so oversubscribed thread counts degrade to near-serial cost
// instead of paying wakeups for idle shards.  `threads == 1` never creates
// a std::thread at all.
//
// Claims are tagged with the window's epoch: one atomic word holds the
// epoch, the busy count and the next busy_list_ index, so a worker woken
// for an earlier window claims nothing, and the coordinator waits until
// every drain claimed in its window has finished (DESIGN.md §12).
#pragma once

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace spb::sim {

/// Per-shard slice of the engine's run statistics.
struct ShardStats {
  std::uint64_t events = 0;
  std::size_t peak_queue_depth = 0;
  /// Windows in which this shard executed at least one event.
  std::uint64_t busy_windows = 0;
  /// Windows in which it executed nothing; busy + idle == total windows.
  std::uint64_t idle_windows = 0;
};

/// Whole-run statistics; all fields are thread-count independent.
struct EngineStats {
  std::uint64_t windows = 0;
  /// Shard-window slots that executed nothing: the sum of the per-shard
  /// idle counts.  The window-efficiency measure the perf harness exports.
  std::uint64_t idle_shard_windows = 0;
  /// Cross-shard transfers staged over the run (note_stage calls).
  std::uint64_t staged_xfers = 0;
  /// Barrier occurrences of a staged transfer being held past safe_horizon
  /// (each transfer counts once per barrier that holds it).
  std::uint64_t held_xfers = 0;
  std::vector<ShardStats> shards;
};

class ShardedEngine {
 public:
  /// `shards` >= 1 partitions the event space; `window_us` > 0 is the
  /// self-lookahead (the minimum delay from initiating a cross-shard
  /// transfer to any of its effects landing back on the initiating shard);
  /// `threads` caps the drain workers (clamped to [1, shards]; only
  /// threads - 1 std::threads are ever created — the caller's thread
  /// drains too).  `cores` is the core count the engagement policy
  /// assumes (0 = the host's); at most cores - 1 workers ever run, so
  /// tests pass a count above 1 to engage workers on any host.
  ShardedEngine(int shards, double window_us, int threads, int cores = 0);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  double window_us() const { return window_; }
  /// Effective worker count after clamping.
  int threads() const { return threads_; }

  /// Installs the shards x shards minimum cross-shard effect latency
  /// matrix (row-major; delays[r * shards + s] bounds effects from r
  /// landing on s, r != s; diagonal entries are ignored — the self bound
  /// is window_us).  Every off-diagonal entry must be >= window_us.  The
  /// engine closes the matrix under min-plus composition so the bound
  /// holds transitively along effect chains.  Must be called before run();
  /// without it every delay is window_us (PR 7's uniform windows).
  void set_cross_delays(const std::vector<double>& delays);

  /// Minimum / maximum off-diagonal entry of the closed delay matrix (the
  /// uniform window_us when set_cross_delays was never called).
  double min_cross_delay_us() const;
  double max_cross_delay_us() const;

  /// Clock of the shard this thread is currently draining.  Only valid
  /// inside an event callback (current_shard() >= 0).
  SimTime now() const;

  /// Index of the shard currently draining on this thread, or -1 outside
  /// event callbacks (before run(), or in barrier context).
  int current_shard() const;

  /// Records that the event currently executing (at `initiate` == now())
  /// staged a cross-shard transfer for the next barrier.  Caps the
  /// executing shard's window at initiate + window_us (the earliest the
  /// transfer's effects can echo back onto this shard) and feeds the
  /// held-transfer accounting that safe_horizon() depends on.  Drain
  /// context only.
  void note_stage(SimTime initiate);

  /// Earliest time any shard could still initiate a cross-shard transfer:
  /// the barrier may only apply staged transfers with initiate <
  /// safe_horizon() and must hold the rest (the engine assumes it does —
  /// the two sides use the same cutoff, keeping the held-floor bookkeeping
  /// in sync).  Valid inside the barrier callback.
  SimTime safe_horizon() const { return safe_horizon_; }

  /// How far shard s has drained: every event executed on s so far was
  /// earlier than this, so barrier pushes onto s must land at or after it.
  SimTime frontier(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].frontier;
  }

  /// Schedules fn at absolute time t on `shard`.  Inside an event
  /// callback only the executing shard may be targeted (cross-shard
  /// traffic goes through the barrier); in barrier or pre-run context any
  /// shard may be targeted, but t must not precede that shard's frontier.
  void at(SimTime t, int shard, EventFn fn);
  /// Typed forms of at(), with the same context rules: resume h, or
  /// deliver in-flight message `slot` through the delivery hook.
  void resume_at(SimTime t, int shard, std::coroutine_handle<> h);
  void deliver_at(SimTime t, int shard, std::uint32_t slot);

  /// Installs the receiver of deliver_at entries (before run()).
  void set_deliver_hook(DeliverHook hook) { deliver_ = hook; }

  using BarrierFn = std::function<void()>;

  /// Runs windows until every shard queue is empty and no staged transfer
  /// is held, invoking `barrier` single-threadedly after each window (with
  /// all workers quiescent).  One-shot.  Returns the maximum shard clock.
  /// An exception thrown by an event aborts the run after its window
  /// completes; with several failing shards the lowest shard index wins
  /// (deterministic).
  SimTime run(const BarrierFn& barrier);

  /// Total events executed across shards.
  std::uint64_t events_executed() const;
  /// Maximum per-shard queue high-water mark.
  std::size_t peak_queue_depth() const;
  EngineStats stats() const;

 private:
  /// Padded to a cache line so concurrent drainers never false-share; the
  /// drain-hot fields (queue, now, limit) sit at the front.
  struct alignas(64) Shard {
    EventQueue queue;
    SimTime now = 0;
    /// This window's (dynamically shrinking) drain end.
    SimTime limit = 0;
    /// Max of all past limits; the per-shard barrier-push floor.
    SimTime frontier = 0;
    std::uint64_t executed = 0;
    std::uint64_t busy_windows = 0;
    std::uint64_t idle_windows = 0;
    /// note_stage calls; per shard because drainers run concurrently.
    std::uint64_t staged_xfers = 0;
    std::exception_ptr error;
    /// Initiation times of staged transfers not yet consumed by a barrier
    /// (nondecreasing; the front is this shard's held floor).  Only the
    /// owning drainer appends; only the single-threaded planner prunes.
    std::vector<SimTime> staged;
    std::size_t staged_cursor = 0;
  };

  double delay(int r, int s) const {
    return cross_delays_[static_cast<std::size_t>(r) *
                             static_cast<std::size_t>(shard_count()) +
                         static_cast<std::size_t>(s)];
  }
  SimTime held_floor(const Shard& s) const {
    return s.staged_cursor < s.staged.size() ? s.staged[s.staged_cursor]
                                             : kNoPending;
  }

  /// The queue an at() call may push onto at time t (checks the drain or
  /// barrier context rules).
  EventQueue& target(SimTime t, int shard);
  /// Plans the next window: per-shard limits, the busy list, stats.
  /// Returns false when the run is complete.
  bool plan_window();
  void drain(int index);
  /// Claims and drains busy shards of window `epoch` until none is left
  /// (or the claim word has moved on to a later window).
  void claim_and_drain(std::uint32_t epoch);
  void run_window();
  void worker_loop();
  void stop_pool();

  static constexpr SimTime kNoPending =
      std::numeric_limits<SimTime>::infinity();

  std::vector<Shard> shards_;
  double window_;
  int threads_;
  /// Worker-engagement cap from the core count; purely a wall-clock
  /// policy knob (never affects results).
  int cores_;
  bool ran_ = false;
  DeliverHook deliver_;
  SimTime safe_horizon_ = 0;
  /// min-plus-closed cross-shard delay matrix (row-major).
  std::vector<double> cross_delays_;
  /// Shards with drainable work this window, claimed through claim_.
  std::vector<int> busy_list_;
  /// Per-window scratch: shards whose eff is finite (they alone constrain
  /// other shards' window ends).
  std::vector<int> active_list_;
  /// Per-window scratch: each shard's earliest possible next initiation.
  std::vector<SimTime> eff_;
  EngineStats stats_;

  // Worker pool (only populated when threads_ > 1).  Workers sleep between
  // windows; an epoch_ bump wakes them, and each claims only in the epoch
  // it woke for.  The coordinator publishes a window by storing the claim
  // word after plan_window, claims alongside the workers, and
  // then waits until done_ reaches the busy count — every claimed drain
  // of the window has finished — before the barrier touches any shard.
  // A worker that wakes late finds a later epoch (or no index left) in
  // the word and claims nothing.  Windows that engage no workers (one
  // busy shard, or a single-core host) skip all of this and drain inline.
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint32_t epoch_ = 0;  // guarded by mu_
  bool stop_ = false;        // guarded by mu_
  /// Claim word: epoch << 32 | busy count << 16 | next busy_list_ index.
  /// On its own cache line so claims never collide with the fields above.
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  /// Drains of the current window that have finished.
  std::atomic<int> done_{0};
};

}  // namespace spb::sim
