// The message-passing runtime: p logical ranks, each executing a coroutine
// program, exchanging Payloads over a contention-aware NetworkModel.
//
// Programming model (MPI-flavoured, but simulated):
//
//   sim::Task program(mp::Comm& comm) {
//     co_await comm.send(dst, payload);            // eager, buffered
//     mp::Message m = co_await comm.recv(src);     // blocks until arrival
//     co_await comm.merge(mine, std::move(m.payload));  // combine + CPU cost
//     comm.mark_iteration();                       // metrics bucket boundary
//   }
//
// Semantics:
//  * send() is *eager*: it blocks the sender only for its software overhead
//    plus the time its injection channel (and the reserved path) serializes
//    the bytes, never for a matching receive.  Pairwise exchanges are
//    therefore deadlock-free by construction.
//  * recv() blocks until a matching message has fully arrived, then costs
//    the receive software overhead.
//  * All ranks start at simulated time 0 (the paper's algorithms begin
//    after one global synchronization).
//  * If the simulation drains with unfinished programs, run() throws
//    DeadlockError naming every rank and the source it is stuck waiting on.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "fault/fault.h"
#include "mp/mailbox.h"
#include "mp/message.h"
#include "mp/metrics.h"
#include "mp/payload.h"
#include "mp/schedule.h"
#include "mp/trace.h"
#include "net/mapping.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace spb::mp {

/// Software-layer costs, distinct from the wire-level net::NetParams.
struct CommParams {
  /// Sender-side software overhead per message, microseconds.
  double send_overhead_us = 20.0;
  /// Receiver-side software overhead per message, microseconds.
  double recv_overhead_us = 20.0;
  /// Extra software cost per send and per recv when the algorithm runs on
  /// the (heavier) portable MPI layer instead of the native one.
  double mpi_extra_us = 0.0;
  /// Message combining: fixed cost plus per-byte copy cost.
  double combine_fixed_us = 2.0;
  double combine_per_byte_us = 0.008;
  /// Envelope sizes added to the payload on the wire.
  Bytes header_bytes = 32;
  Bytes chunk_header_bytes = 8;
};

/// Thrown when programs are blocked forever.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Always empty: the simulator has one event loop.  Kept with only the
/// fields perfbench/sim_workloads.cpp, its only reader, folds into its
/// sim_large probe fingerprints.
struct ParallelStats {
  int shards = 0;
  std::uint64_t windows = 0;
  std::uint64_t idle_shard_windows = 0;
  std::uint64_t staged_xfers = 0;
  std::uint64_t held_xfers = 0;
  struct Shard {
    std::uint64_t events = 0;
    std::uint64_t peak_queue_depth = 0;
    std::uint64_t busy_windows = 0;
    std::uint64_t idle_windows = 0;
  };
  std::vector<Shard> per_shard;
};

/// Result of Runtime::run().
struct RunOutcome {
  /// Completion time of the slowest rank (the paper's reported time).
  SimTime makespan_us = 0;
  RunMetrics metrics;
  net::NetworkStats network;
  /// Busy time of every directed network link, indexed by LinkId — the
  /// raw material of contention heatmaps (see examples/link_heatmap).
  std::vector<double> link_busy_us;
  std::uint64_t events = 0;
  /// High-water mark of the simulator's pending-event queue.
  std::size_t peak_queue_depth = 0;
  /// Per-phase table (empty unless the algorithm annotated phases through
  /// Comm::begin_phase); rows are indexed by interned phase id and carry
  /// the phase names.
  std::vector<PhaseTotals> phases;
  /// Always empty; read only by perfbench/sim_workloads.cpp.
  ParallelStats par;
};

class Runtime;

/// Per-rank communication endpoint handed to rank programs.
class Comm {
 public:
  Rank rank() const { return rank_; }
  int size() const;
  SimTime now() const;

  /// Wire size of a payload under the configured envelope overheads.
  Bytes wire_bytes(const Payload& p) const;

  /// Wire size of a hypothetical payload of `payload_bytes` in `chunks`
  /// chunks (used to size segmented transfers before the data exists).
  Bytes wire_bytes_for(Bytes payload_bytes, std::size_t chunks) const;

  /// CPU cost of merging `bytes` of received data into a local buffer.
  double combine_cost_us(Bytes bytes) const;

  // --- awaitables -------------------------------------------------------

  struct [[nodiscard]] SendAwaiter {
    Comm* comm;
    Rank dst;
    Payload payload;
    int tag;
    /// 0 = compute from the payload; otherwise the explicit wire size used
    /// by send_sized (segment traffic).
    Bytes wire_override = 0;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  struct [[nodiscard]] RecvAwaiter {
    Comm* comm;
    Rank src;
    int tag;
    /// In-flight pool slot of the matched message, set before the resume;
    /// await_resume moves the message out of the pool.
    std::uint32_t slot = 0;
    bool blocked = false;
    SimTime called_at = 0;
    /// Schedule-recording stamp of this receive post (-1 = not recording).
    int sched_op = -1;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    Message await_resume();
  };

  struct [[nodiscard]] ComputeAwaiter {
    Comm* comm;
    double us;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  struct [[nodiscard]] MergeAwaiter {
    Comm* comm;
    Payload* into;
    Payload add;
    bool dedup;
    ComputeAwaiter compute;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      compute.await_suspend(h);
    }
    void await_resume();
  };

  /// Sends `payload` to rank dst (dst != rank()).  Completes when the
  /// sender's side of the transfer is done (injection finished).
  SendAwaiter send(Rank dst, Payload payload, int tag = tags::kData);

  /// Sends a message with an explicit wire size, independent of the
  /// payload (which may be empty).  Segmented transfers move their bytes
  /// as sized filler messages and ship the symbolic payload on the last
  /// segment.
  SendAwaiter send_sized(Rank dst, Payload payload, Bytes wire_bytes,
                         int tag = tags::kData);

  /// Receives the next message matching `src` (or any source) and `tag`
  /// (or any tag).  Any-source receives should pin a tag — see mp/message.h.
  RecvAwaiter recv(Rank src = kAnySource, int tag = kAnyTag);

  /// Spends `us` microseconds of CPU time.
  ComputeAwaiter compute(double us);

  /// Merges `add` into `into`, charging the combining CPU cost.  With
  /// dedup, duplicate sources collapse (PersAlltoAll-style redundancy).
  MergeAwaiter merge(Payload& into, Payload add, bool dedup = false);

  /// Starts a new metrics iteration (see mp/metrics.h).
  void mark_iteration();

  // --- phase annotation -------------------------------------------------
  // Algorithms bracket their stages ("gather", "bcast", per-dimension
  // rounds ...) so metrics and exported timelines break down by stage.
  // Phases nest; operations are attributed to the innermost open phase.
  // Names are interned runtime-wide, so every rank calling
  // begin_phase("gather") lands in the same table row.  Phases left open
  // when a program finishes are closed automatically at its completion
  // time.

  void begin_phase(std::string_view name);
  void end_phase();
  /// Interned id of the innermost open phase (-1 = outside any phase).
  int current_phase() const {
    return phase_stack_.empty() ? -1 : phase_stack_.back().id;
  }

  const RankMetrics& metrics() const { return metrics_; }

 private:
  friend class Runtime;
  Comm(Runtime& rt, Rank rank) : rt_(&rt), rank_(rank) {}

  Runtime* rt_;
  Rank rank_;
  Mailbox mailbox_;
  RankMetrics metrics_;

  struct OpenPhase {
    int id;
    SimTime began;
  };
  std::vector<OpenPhase> phase_stack_;

  /// The single receive this rank's coroutine may be parked on.
  struct PendingRecv {
    Rank src = kAnySource;
    int tag = kAnyTag;
    RecvAwaiter* awaiter = nullptr;
    std::coroutine_handle<> handle;
  };
  std::optional<PendingRecv> pending_;

  /// Fault runs with message faults: next sequence number per destination
  /// this rank has sent to.
  std::unordered_map<Rank, std::uint32_t> next_seq_;
};

class Runtime {
 public:
  /// Builds a runtime for `mapping.rank_count()` ranks over the given
  /// network.  The mapping must fit inside the topology.
  Runtime(std::shared_ptr<const net::Topology> topo, net::NetParams net,
          CommParams comm, net::RankMapping mapping);

  /// Every Comm and, once run() starts, the simulator's delivery hook
  /// point at this object, so a runtime is built in place and stays put.
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  Runtime(Runtime&&) = delete;
  Runtime& operator=(Runtime&&) = delete;

  int size() const { return mapping_.rank_count(); }
  Comm& comm(Rank r);

  /// Registers rank r's program.  Every rank needs exactly one program
  /// before run().
  void spawn(Rank r, sim::Task task);

  /// Runs all programs from simulated time 0 until completion.  One-shot.
  RunOutcome run();

  /// Installs a fault plan (before run()): degraded links slow the network
  /// model, stragglers stretch software overheads, and message faults turn
  /// on per-send retransmission with duplicate suppression.  All delivery
  /// guarantees hold under any plan — the final attempt always lands.  A
  /// null plan (the default) leaves every fault hook on its zero-cost path.
  void set_fault_plan(fault::FaultPlanPtr plan);
  const fault::FaultPlanPtr& fault_plan() const { return plan_; }

  /// Software-overhead multiplier of rank r (1.0 except for stragglers).
  double slowdown(Rank r) const {
    return plan_ == nullptr ? 1.0 : plan_->rank_slowdown(r);
  }

  /// Enables event tracing (before run()); see mp/trace.h.
  void enable_trace() { trace_enabled_ = true; }
  const Trace& trace() const { return trace_; }

  /// Installs a per-link usage accumulator on the network model (before
  /// run()); see net::LinkUsageProbe.  Null (the default) keeps the
  /// zero-cost path — mirror of the fault-plan hook.
  void set_link_probe(net::LinkUsageProbe* probe) {
    net_.set_usage_probe(probe);
  }

  /// Phase names interned by Comm::begin_phase, indexed by phase id.
  const std::vector<std::string>& phase_names() const { return phase_names_; }

  /// Enables symbolic schedule recording (before run()); see mp/schedule.h.
  /// The schedule survives a DeadlockError thrown by run(), which is what
  /// the static analyzer inspects for hung programs.
  void enable_schedule_recording();
  bool schedule_recording() const { return schedule_enabled_; }
  const Schedule& schedule() const { return schedule_; }
  /// Moves the recorded schedule out (after run()), leaving an empty one.
  Schedule take_schedule() { return std::exchange(schedule_, Schedule()); }

  sim::Simulator& simulator() { return sim_; }
  const net::NetworkModel& network() const { return net_; }
  const CommParams& comm_params() const { return params_; }
  const net::RankMapping& mapping() const { return mapping_; }

 private:
  friend class Comm;

  /// The simulator's delivery hook: runs at a message's arrival time with
  /// its in-flight pool slot.  Fault-run messages (seq >= 0) first pass the
  /// mailbox's reorder buffer, which suppresses duplicates and restores
  /// FIFO per (src, dst) despite retransmission; whatever it releases goes
  /// to hand_over.
  static void deliver_hook(void* runtime, std::uint32_t slot);
  void deliver(std::uint32_t slot);
  /// Hands arrived message `slot` to its destination's parked receive, or
  /// parks the slot in the destination's mailbox.
  void hand_over(std::uint32_t slot);

  /// Fault-run send path: decides the fate of one transmission attempt of
  /// the pooled message (delivered, delivered-but-ack-lost, or dropped
  /// with a scheduled retransmit) from the reserved transfer's timing.
  /// Runs inline at reserve time.
  void after_reserve(std::uint32_t slot, int attempt, const net::Transfer& t);
  /// Schedules transmission attempt `attempt` of the pooled message in
  /// `slot` at time t.
  void sched_retransmit(SimTime t, std::uint32_t slot, int attempt);
  /// Re-injects a pooled message for transmission attempt `attempt`,
  /// ready to inject at `ready`.
  void retransmit(std::uint32_t slot, int attempt, SimTime ready);

  // In-flight message pool.  A message is written into a slot once, when
  // its send is reserved, and stays there — through delivery, the fault
  // reorder buffer and the mailbox, which all pass the slot around —
  // until the receive's await_resume moves it out.  Slots are reused.
  std::uint32_t alloc_inflight();
  std::uint32_t stash_inflight(Message msg);
  /// Moves the message out of `slot` and frees the slot.
  Message take_inflight(std::uint32_t slot);
  void free_inflight(std::uint32_t slot) { inflight_free_.push_back(slot); }

  /// Interns a phase name runtime-wide, so ids agree across ranks.
  int phase_id(std::string_view name);

  sim::Simulator sim_;
  net::NetworkModel net_;
  CommParams params_;
  net::RankMapping mapping_;
  std::vector<std::unique_ptr<Comm>> comms_;
  std::vector<sim::Task> tasks_;
  std::vector<SimTime> done_at_;
  std::vector<Message> inflight_;
  std::vector<std::uint32_t> inflight_free_;
  fault::FaultPlanPtr plan_;  // null = no faults
  bool message_faults_ = false;  // the plan numbers messages per (src, dst)
  bool ran_ = false;
  bool trace_enabled_ = false;
  Trace trace_;
  std::vector<std::string> phase_names_;
  bool schedule_enabled_ = false;
  Schedule schedule_;
};

}  // namespace spb::mp
