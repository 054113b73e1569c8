#include "mp/runtime.h"

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.h"
#include "net/regions.h"

namespace spb::mp {

namespace {

std::vector<Rank> chunk_sources_of(const Payload& p) {
  std::vector<Rank> srcs;
  srcs.reserve(p.chunk_count());
  for (const Chunk& c : p.chunks()) srcs.push_back(c.source);
  return srcs;
}

}  // namespace

// ----------------------------------------------------------------- Comm

int Comm::size() const { return rt_->size(); }

SimTime Comm::now() const { return rt_->now_us(); }

Bytes Comm::wire_bytes(const Payload& p) const {
  return wire_bytes_for(p.total_bytes(), p.chunk_count());
}

Bytes Comm::wire_bytes_for(Bytes payload_bytes, std::size_t chunks) const {
  const CommParams& cp = rt_->params_;
  return cp.header_bytes + cp.chunk_header_bytes * chunks + payload_bytes;
}

double Comm::combine_cost_us(Bytes bytes) const {
  const CommParams& cp = rt_->params_;
  return cp.combine_fixed_us +
         cp.combine_per_byte_us * static_cast<double>(bytes);
}

Comm::SendAwaiter Comm::send(Rank dst, Payload payload, int tag) {
  SPB_REQUIRE(dst >= 0 && dst < size(), "send to invalid rank " << dst);
  SPB_REQUIRE(dst != rank_, "rank " << rank_ << " sending to itself");
  SPB_REQUIRE(tag >= 0, "message tags must be non-negative");
  return SendAwaiter{this, dst, std::move(payload), tag, 0};
}

Comm::SendAwaiter Comm::send_sized(Rank dst, Payload payload,
                                   Bytes wire_bytes, int tag) {
  SPB_REQUIRE(dst >= 0 && dst < size(), "send to invalid rank " << dst);
  SPB_REQUIRE(dst != rank_, "rank " << rank_ << " sending to itself");
  SPB_REQUIRE(tag >= 0, "message tags must be non-negative");
  SPB_REQUIRE(wire_bytes > 0, "send_sized needs a positive wire size");
  return SendAwaiter{this, dst, std::move(payload), tag, wire_bytes};
}

Comm::RecvAwaiter Comm::recv(Rank src, int tag) {
  SPB_REQUIRE(src == kAnySource || (src >= 0 && src < size()),
              "recv from invalid rank " << src);
  SPB_REQUIRE(src != rank_, "rank " << rank_ << " receiving from itself");
  SPB_REQUIRE(tag == kAnyTag || tag >= 0, "invalid tag " << tag);
  return RecvAwaiter{this, src, tag};
}

Comm::ComputeAwaiter Comm::compute(double us) {
  SPB_REQUIRE(us >= 0, "negative compute time");
  return ComputeAwaiter{this, us};
}

Comm::MergeAwaiter Comm::merge(Payload& into, Payload add, bool dedup) {
  const double cost = combine_cost_us(add.total_bytes());
  return MergeAwaiter{this, &into, std::move(add), dedup,
                      ComputeAwaiter{this, cost}};
}

void Comm::mark_iteration() { metrics_.mark_iteration(); }

void Comm::begin_phase(std::string_view name) {
  const int id = rt_->phase_id(name);
  metrics_.phase_begin(id);
  phase_stack_.push_back(OpenPhase{id, rt_->now_us()});
  if (rt_->trace_enabled_) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kPhaseBegin;
    e.rank = rank_;
    e.begin_us = e.end_us = rt_->now_us();
    e.phase = id;
    rt_->trace_.record(e);
  }
}

void Comm::end_phase() {
  SPB_REQUIRE(!phase_stack_.empty(),
              "rank " << rank_ << ": end_phase() without begin_phase()");
  const OpenPhase open = phase_stack_.back();
  phase_stack_.pop_back();
  const SimTime now = rt_->now_us();
  metrics_.phase_span(open.id, now - open.began);
  if (rt_->trace_enabled_) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kPhaseEnd;
    e.rank = rank_;
    e.begin_us = open.began;  // the exporter emits one complete event
    e.end_us = now;
    e.phase = open.id;
    rt_->trace_.record(e);
  }
}

void Comm::SendAwaiter::await_suspend(std::coroutine_handle<> h) {
  Comm& c = *comm;
  Runtime& rt = *c.rt_;
  const CommParams& cp = rt.params_;
  const SimTime now = rt.now_us();
  const Bytes wire = wire_override > 0 ? wire_override : c.wire_bytes(payload);

  const int send_op =
      rt.schedule_enabled_
          ? rt.schedule_.record_send(c.rank_, dst, tag, wire,
                                     chunk_sources_of(payload),
                                     payload.total_bytes())
          : -1;

  c.metrics_.on_send(wire, c.current_phase());

  // Message faults need a per-(src, dst) sequence number for duplicate
  // suppression; seq_ is only sized when the plan asks for them.
  const bool message_faults = !rt.seq_.empty();
  std::int32_t seq = -1;
  if (message_faults) {
    std::uint32_t& next =
        rt.seq_[static_cast<std::size_t>(c.rank_) *
                    static_cast<std::size_t>(rt.size()) +
                static_cast<std::size_t>(dst)];
    seq = static_cast<std::int32_t>(next++);
  }

  const SimTime ready =
      now + (cp.send_overhead_us + cp.mpi_extra_us) * rt.slowdown(c.rank_);

  // The one write of the message: every field, the payload moved in.
  const auto write = [&](Message& m, SimTime arrived_at) {
    m.src = c.rank_;
    m.dst = dst;
    m.tag = tag;
    m.payload = std::move(payload);
    m.wire_bytes = wire;
    m.sent_at = now;
    m.arrived_at = arrived_at;
    m.sched_send_op = send_op;
    m.seq = seq;
    m.duplicate = false;
  };

  if (rt.parallel_active()) {
    // Parallel path: the network model is barrier-only shared state.  Park
    // the message in the shard's staging buffer; the sequencer reserves in
    // canonical order and schedules delivery + sender resume — which the
    // lookahead (ready >= now + window) proves land in a later window.
    write(rt.stage_send(ready, h), 0);
    return;
  }

  const net::Transfer t =
      rt.net_.reserve(rt.mapping_.node_of(c.rank_), rt.mapping_.node_of(dst),
                      wire, ready);

  if (rt.trace_enabled_) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kSend;
    e.rank = c.rank_;
    e.peer = dst;
    e.tag = tag;
    e.wire_bytes = wire;
    e.begin_us = now;
    e.end_us = t.inject_done;
    e.arrive_us = t.arrive;
    e.phase = c.current_phase();
    rt.trace_.record(e);
  }

  // The message goes straight into the in-flight pool, and the delivery
  // event carries only its slot.
  const std::uint32_t slot = rt.alloc_inflight();
  write(rt.inflight_[slot], t.arrive);
  if (message_faults) {
    // The fault path decides whether this attempt lands, duplicates or is
    // retransmitted; the sender is released at attempt 0's injection time
    // either way (retries run NIC-style in the background, so algorithms
    // stay fault-oblivious).
    rt.after_reserve(slot, 0, t);
  } else {
    rt.sim_.deliver_at(t.arrive, slot);
  }
  // The sender regains control once its injection is complete.
  rt.sim_.resume_at(t.inject_done, h);
}

void Comm::RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  Comm& c = *comm;
  Runtime& rt = *c.rt_;
  const CommParams& cp = rt.params_;
  called_at = rt.now_us();

  if (rt.schedule_enabled_)
    sched_op = rt.schedule_.record_recv_post(c.rank_, src, tag);

  if (const std::optional<std::uint32_t> hit = c.mailbox_.take(src, tag)) {
    blocked = false;
    slot = *hit;
    rt.resume_at_rank(
        called_at +
            (cp.recv_overhead_us + cp.mpi_extra_us) * rt.slowdown(c.rank_),
        c.rank_, h);
    return;
  }
  blocked = true;
  SPB_CHECK_MSG(!c.pending_.has_value(),
                "rank " << c.rank_ << " has two receives in flight");
  c.pending_ = Comm::PendingRecv{src, tag, this, h};
}

Message Comm::RecvAwaiter::await_resume() {
  Comm& c = *comm;
  Runtime& rt = *c.rt_;
  Message m = rt.take_inflight(slot);
  if (rt.schedule_enabled_ && sched_op >= 0) {
    rt.schedule_.record_recv_match(sched_op, m.sched_send_op, m.wire_bytes,
                                   chunk_sources_of(m.payload),
                                   m.payload.total_bytes());
  }
  c.metrics_.on_recv(m.wire_bytes, blocked,
                     blocked ? m.arrived_at - called_at : 0.0,
                     c.current_phase());
  if (rt.trace_enabled_) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kRecv;
    e.rank = c.rank_;
    e.peer = m.src;
    e.tag = m.tag;
    e.wire_bytes = m.wire_bytes;
    e.begin_us = called_at;
    e.end_us = rt.now_us();
    e.blocked = blocked;
    e.phase = c.current_phase();
    rt.trace_.record(e);
  }
  return m;
}

void Comm::ComputeAwaiter::await_suspend(std::coroutine_handle<> h) {
  Runtime& rt = *comm->rt_;
  const double actual = us * rt.slowdown(comm->rank_);
  const SimTime now = rt.now_us();
  comm->metrics_.on_compute(actual, comm->current_phase());
  if (rt.trace_enabled_) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kCompute;
    e.rank = comm->rank_;
    e.begin_us = now;
    e.end_us = now + actual;
    e.phase = comm->current_phase();
    rt.trace_.record(e);
  }
  rt.resume_at_rank(now + actual, comm->rank_, h);
}

void Comm::MergeAwaiter::await_resume() {
  if (dedup) {
    into->merge_dedup(add);
  } else {
    into->merge(add);
  }
}

// -------------------------------------------------------------- Runtime

Runtime::Runtime(std::shared_ptr<const net::Topology> topo,
                 net::NetParams net, CommParams comm,
                 net::RankMapping mapping)
    : net_(std::move(topo), net),
      params_(comm),
      mapping_(std::move(mapping)) {
  const int p = mapping_.rank_count();
  for (Rank r = 0; r < p; ++r) {
    SPB_REQUIRE(mapping_.node_of(r) < net_.topology().node_count(),
                "rank " << r << " mapped outside the topology");
  }
  comms_.reserve(static_cast<std::size_t>(p));
  // Comm's constructor is private (only the runtime mints endpoints), so
  // make_unique cannot reach it; the raw new goes straight into the
  // unique_ptr.
  for (Rank r = 0; r < p; ++r)
    comms_.push_back(std::unique_ptr<Comm>(new Comm(*this, r)));
  tasks_.resize(static_cast<std::size_t>(p));
  done_at_.assign(static_cast<std::size_t>(p), -1.0);
}

Comm& Runtime::comm(Rank r) {
  SPB_REQUIRE(r >= 0 && r < size(), "rank " << r << " out of range");
  return *comms_[static_cast<std::size_t>(r)];
}

void Runtime::spawn(Rank r, sim::Task task) {
  SPB_REQUIRE(r >= 0 && r < size(), "rank " << r << " out of range");
  SPB_REQUIRE(!ran_, "spawn() after run()");
  SPB_REQUIRE(!tasks_[static_cast<std::size_t>(r)].valid(),
              "rank " << r << " already has a program");
  SPB_REQUIRE(task.valid(), "spawn() needs a valid task");
  tasks_[static_cast<std::size_t>(r)] = std::move(task);
}

void Runtime::enable_schedule_recording() {
  SPB_REQUIRE(!ran_, "enable_schedule_recording() after run()");
  schedule_enabled_ = true;
  schedule_ = Schedule(size());
}

void Runtime::set_fault_plan(fault::FaultPlanPtr plan) {
  SPB_REQUIRE(!ran_, "set_fault_plan() after run()");
  plan_ = plan;
  net_.set_fault_plan(std::move(plan));
  if (plan_ != nullptr && plan_->spec().message_faults()) {
    seq_.assign(static_cast<std::size_t>(size()) *
                    static_cast<std::size_t>(size()),
                0);
  } else {
    seq_.clear();
  }
}

std::uint32_t Runtime::alloc_inflight() {
  if (parallel_active()) {
    // Barrier-only under the engine: pool growth must be single-threaded.
    // Scan the per-shard free lists in shard order so slot reuse is
    // deterministic regardless of which shard freed what.
    for (std::vector<std::uint32_t>& free : inflight_free_par_) {
      if (free.empty()) continue;
      const std::uint32_t slot = free.back();
      free.pop_back();
      return slot;
    }
  } else if (!inflight_free_.empty()) {
    const std::uint32_t slot = inflight_free_.back();
    inflight_free_.pop_back();
    return slot;
  }
  inflight_.emplace_back();
  return static_cast<std::uint32_t>(inflight_.size() - 1);
}

std::uint32_t Runtime::stash_inflight(Message msg) {
  const std::uint32_t slot = alloc_inflight();
  inflight_[slot] = std::move(msg);
  return slot;
}

Message Runtime::take_inflight(std::uint32_t slot) {
  Message m = std::move(inflight_[slot]);
  free_inflight(slot);
  return m;
}

void Runtime::free_inflight(std::uint32_t slot) {
  if (parallel_active()) {
    inflight_free_par_[static_cast<std::size_t>(engine_->current_shard())]
        .push_back(slot);
  } else {
    inflight_free_.push_back(slot);
  }
}

int Runtime::phase_id(std::string_view name) {
  SPB_REQUIRE(!name.empty(), "phase names must be non-empty");
  // Runs annotate a handful of phases; a linear scan beats a map here.
  // Parallel path: interning happens inside concurrent drains, so each
  // shard keeps its own table (ids are shard-local until run() merges
  // them via merge_shard_phases).
  std::vector<std::string>& names =
      parallel_active()
          ? phase_names_par_[static_cast<std::size_t>(
                engine_->current_shard())]
          : phase_names_;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return static_cast<int>(i);
  names.emplace_back(name);
  return static_cast<int>(names.size() - 1);
}

void Runtime::enable_parallel(int threads, int cores) {
  SPB_REQUIRE(!ran_, "enable_parallel() after run()");
  SPB_REQUIRE(threads >= 1 || threads == -1,
              "enable_parallel() needs threads >= 1 or -1 for auto (got "
                  << threads << "); 0 means the serial loop "
                  << "— simply do not call it");
  SPB_REQUIRE(cores >= 0, "enable_parallel() needs cores >= 0 (got "
                              << cores << "); 0 means the host's count");
  par_threads_ = threads;
  par_cores_ = cores;
}

double Runtime::lookahead_us() const {
  double w = params_.send_overhead_us + params_.mpi_extra_us;
  if (plan_ != nullptr && plan_->spec().message_faults()) {
    // Retransmit staging events reserve with ready == their own time, so
    // their deliveries are only a network-latency floor away; their
    // retries are a backoff (>= one timeout) away.
    w = std::min(w, net_.params().alpha_us + net_.params().per_hop_us);
    w = std::min(w, plan_->spec().retransmit_timeout_us);
  }
  return w;
}

SimTime Runtime::now_us() const {
  return parallel_active() && engine_->current_shard() >= 0 ? engine_->now()
                                                           : sim_.now();
}

void Runtime::sched_at_rank(SimTime t, Rank r, sim::EventFn fn) {
  if (parallel_active()) {
    engine_->at(t, shard_of_rank_[static_cast<std::size_t>(r)],
                std::move(fn));
  } else {
    sim_.at(t, std::move(fn));
  }
}

void Runtime::resume_at_rank(SimTime t, Rank r, std::coroutine_handle<> h) {
  if (parallel_active()) {
    engine_->resume_at(t, shard_of_rank_[static_cast<std::size_t>(r)], h);
  } else {
    sim_.resume_at(t, h);
  }
}

void Runtime::deliver_at_rank(SimTime t, Rank r, std::uint32_t slot) {
  if (parallel_active()) {
    engine_->deliver_at(t, shard_of_rank_[static_cast<std::size_t>(r)], slot);
  } else {
    sim_.deliver_at(t, slot);
  }
}

Message& Runtime::stage_send(SimTime ready, std::coroutine_handle<> h) {
  const int shard = engine_->current_shard();
  StagedXfer& x = staged_[static_cast<std::size_t>(shard)].emplace_back();
  x.initiate = engine_->now();
  x.ready = ready;
  x.h = h;
  x.kind = StagedXfer::Kind::kSend;
  engine_->note_stage(engine_->now());
  return x.msg;
}

void Runtime::sched_retransmit(SimTime t, std::uint32_t slot, int attempt) {
  if (parallel_active()) {
    // The staging event lives on the sender's shard (the simulated NIC);
    // when it fires it parks a request that the next barrier reserves.
    const Rank src = inflight_[slot].src;
    engine_->at(t, shard_of_rank_[static_cast<std::size_t>(src)],
                [this, slot, attempt]() {
                  StagedXfer x;
                  x.initiate = engine_->now();
                  x.ready = x.initiate;
                  x.slot = slot;
                  x.attempt = attempt;
                  x.kind = StagedXfer::Kind::kRetransmit;
                  staged_[static_cast<std::size_t>(engine_->current_shard())]
                      .push_back(std::move(x));
                  engine_->note_stage(engine_->now());
                });
  } else {
    sim_.at(t, [this, slot, attempt]() {
      retransmit(slot, attempt, sim_.now());
    });
  }
}

void Runtime::sequencer_flush() {
  // Canonical order: (initiate time, staging shard, staging order) — the
  // same global order PR 7 produced with a sort, maintained incrementally:
  // each shard's staging vector is already initiate-ordered (drains are
  // time-ordered, and a shard's frontier separates the windows), so the
  // barrier k-way-merges the unconsumed vector tails.  Because per-region
  // sub-windows let shards drain ahead of each other, a staged transfer
  // may only be executed once no shard can possibly stage an earlier one
  // — initiate below the engine's safe horizon; later entries stay parked
  // (cursor not advanced) for a future barrier, which keeps the reserve
  // order identical to the serial run's.
  const SimTime safe = engine_->safe_horizon();
  const std::size_t shards = staged_.size();
  for (;;) {
    std::size_t best = shards;
    SimTime best_t = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      if (staged_cursor_[s] >= staged_[s].size()) continue;
      const SimTime t = staged_[s][staged_cursor_[s]].initiate;
      if (t >= safe) continue;  // held back for a later barrier
      if (best == shards || t < best_t) {
        best = s;
        best_t = t;
      }
    }
    if (best == shards) break;
    StagedXfer& x = staged_[best][staged_cursor_[best]++];
    if (x.kind == StagedXfer::Kind::kSend) {
      const Rank src = x.msg.src;
      const Rank dst = x.msg.dst;
      const Bytes wire = x.msg.wire_bytes;
      const net::Transfer t = net_.reserve(
          mapping_.node_of(src), mapping_.node_of(dst), wire, x.ready);
      x.msg.arrived_at = t.arrive;
      const std::uint32_t slot = stash_inflight(std::move(x.msg));
      if (!seq_.empty()) {
        after_reserve(slot, 0, t);
      } else {
        deliver_at_rank(t.arrive, dst, slot);
      }
      resume_at_rank(t.inject_done, src, x.h);
    } else {
      retransmit(x.slot, x.attempt, x.ready);
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    if (staged_cursor_[s] == staged_[s].size()) {
      staged_[s].clear();
      staged_cursor_[s] = 0;
    }
  }
}

void Runtime::merge_shard_phases() {
  // Canonical global table: shard 0's names in order, then every name a
  // later shard saw first.  Ranks then remap their shard-local ids.
  std::vector<std::vector<int>> to_global(phase_names_par_.size());
  for (std::size_t s = 0; s < phase_names_par_.size(); ++s) {
    to_global[s].reserve(phase_names_par_[s].size());
    for (const std::string& name : phase_names_par_[s]) {
      int id = -1;
      for (std::size_t g = 0; g < phase_names_.size(); ++g)
        if (phase_names_[g] == name) {
          id = static_cast<int>(g);
          break;
        }
      if (id < 0) {
        phase_names_.push_back(name);
        id = static_cast<int>(phase_names_.size() - 1);
      }
      to_global[s].push_back(id);
    }
  }
  for (Rank r = 0; r < size(); ++r) {
    const auto shard = static_cast<std::size_t>(
        shard_of_rank_[static_cast<std::size_t>(r)]);
    comms_[static_cast<std::size_t>(r)]->metrics_.remap_phases(
        to_global[shard]);
  }
}

void Runtime::after_reserve(std::uint32_t slot, int attempt,
                            const net::Transfer& t) {
  Message& m = inflight_[slot];
  const auto seq = static_cast<std::uint32_t>(m.seq);

  if (!m.duplicate && plan_->transit_dropped(m.src, m.dst, seq, attempt)) {
    // Attempt lost in transit; the (simulated) NIC times out and re-injects
    // with exponential backoff.  The plan never drops the final attempt, so
    // this recursion always terminates in a delivery.
    comm(m.src).metrics_.on_transit_drop();
    if (trace_enabled_) {
      TraceEvent e;
      e.kind = TraceEvent::Kind::kDrop;
      e.rank = m.src;
      e.peer = m.dst;
      e.tag = m.tag;
      e.wire_bytes = m.wire_bytes;
      e.begin_us = t.start;
      e.end_us = t.inject_done;
      trace_.record(e);
    }
    sched_retransmit(t.inject_done + plan_->backoff_us(attempt), slot,
                     attempt + 1);
    return;
  }

  m.arrived_at = t.arrive;
  const Rank dst = m.dst;

  if (!m.duplicate && plan_->ack_dropped(m.src, dst, seq, attempt)) {
    // The attempt landed but its acknowledgement was lost: the sender
    // times out and re-sends once more.  The copy is flagged so it skips
    // the drop/ack rolls (at most one duplicate per lost ack) and so the
    // receiver's suppression discards it.
    // `stash_inflight` may grow the pool and invalidate `m` — nothing
    // below may touch it (hence the `dst` copy above).
    Message dup = m;
    dup.duplicate = true;
    const std::uint32_t dup_slot = stash_inflight(std::move(dup));
    sched_retransmit(t.inject_done + plan_->backoff_us(attempt), dup_slot,
                     attempt + 1);
  }

  deliver_at_rank(t.arrive, dst, slot);
}

void Runtime::retransmit(std::uint32_t slot, int attempt, SimTime ready) {
  Message& m = inflight_[slot];
  comm(m.src).metrics_.on_retransmit();
  const net::Transfer t =
      net_.reserve(mapping_.node_of(m.src), mapping_.node_of(m.dst),
                   m.wire_bytes, ready);
  if (trace_enabled_) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kRetransmit;
    e.rank = m.src;
    e.peer = m.dst;
    e.tag = m.tag;
    e.wire_bytes = m.wire_bytes;
    e.begin_us = ready;
    e.end_us = t.inject_done;
    e.arrive_us = t.arrive;
    trace_.record(e);
  }
  after_reserve(slot, attempt, t);
}

void Runtime::deliver_hook(void* runtime, std::uint32_t slot) {
  static_cast<Runtime*>(runtime)->deliver(slot);
}

void Runtime::deliver(std::uint32_t slot) {
  const Message& m = inflight_[slot];
  if (m.seq < 0) {
    hand_over(slot);
    return;
  }
  Comm& dst = comm(m.dst);
  bool duplicate = false;
  const std::vector<std::uint32_t> ready = dst.mailbox_.sequence(
      m.src, static_cast<std::uint32_t>(m.seq), slot, duplicate);
  if (duplicate) {
    dst.metrics_.on_duplicate();
    free_inflight(slot);
    return;
  }
  for (const std::uint32_t s : ready) hand_over(s);
}

void Runtime::hand_over(std::uint32_t slot) {
  const Message& m = inflight_[slot];
  Comm& dst = comm(m.dst);
  if (dst.pending_.has_value()) {
    const Comm::PendingRecv& p = *dst.pending_;
    const bool src_ok = p.src == kAnySource || p.src == m.src;
    const bool tag_ok = p.tag == kAnyTag || p.tag == m.tag;
    if (src_ok && tag_ok) {
      p.awaiter->slot = slot;
      const std::coroutine_handle<> h = p.handle;
      dst.pending_.reset();
      const Rank r = m.dst;
      resume_at_rank(
          now_us() +
              (params_.recv_overhead_us + params_.mpi_extra_us) * slowdown(r),
          r, h);
      return;
    }
  }
  dst.mailbox_.park(slot, m.src, m.tag);
}

RunOutcome Runtime::run() {
  SPB_REQUIRE(!ran_, "Runtime::run() is one-shot");
  ran_ = true;
  const int p = size();
  for (Rank r = 0; r < p; ++r)
    SPB_REQUIRE(tasks_[static_cast<std::size_t>(r)].valid(),
                "rank " << r << " has no program");

  // The sharded engine only pays off (and only stays simple) when ranks are
  // plural, there is positive lookahead, and nothing needs the serial loop's
  // global event order (tracing and schedule recording both do: their
  // records interleave across ranks in execution order).  The fallback is
  // automatic so callers can set sim_threads unconditionally.
  const double window = lookahead_us();
  const bool use_par = par_threads_ != 0 && p >= 2 && window > 0 &&
                       !trace_enabled_ && !schedule_enabled_;
  if (use_par) {
    const int nodes = net_.topology().node_count();
    const int shards = net::region_count(nodes);
    int threads = par_threads_;
    if (threads < 0) {
      // Auto mode: size the pool to the host (capped by the shard count —
      // more workers than shards can never engage).  The per-window worker
      // engagement inside the engine then follows live window occupancy.
      threads = std::clamp(
          par_cores_ > 0
              ? par_cores_
              : static_cast<int>(std::thread::hardware_concurrency()),
          1, shards);
    }
    engine_ = std::make_unique<sim::ShardedEngine>(shards, window, threads,
                                                   par_cores_);
    engine_->set_deliver_hook({&Runtime::deliver_hook, this});
    // Per-region sub-windows: a transfer initiated in region r cannot
    // produce an event in region s before the sender-side software floor
    // (zero under message faults — retransmits inject with ready ==
    // initiate) plus the wire floor over the regions' minimum hop
    // distance.  The matrix is a pure function of topology and parameters,
    // so the sub-window plan — like everything else — is thread-count
    // independent.
    const net::RegionMap& rmap = net::RegionMap::of(net_.topology(), shards);
    const bool faulty = plan_ != nullptr && plan_->spec().message_faults();
    const double base =
        (faulty ? 0.0 : params_.send_overhead_us + params_.mpi_extra_us) +
        net_.params().alpha_us;
    std::vector<double> delays(
        static_cast<std::size_t>(shards) * static_cast<std::size_t>(shards),
        window);
    for (int r = 0; r < shards; ++r)
      for (int s = 0; s < shards; ++s)
        if (r != s)
          delays[static_cast<std::size_t>(r * shards + s)] = std::max(
              window,
              base + rmap.min_hops(r, s) * net_.params().per_hop_us);
    engine_->set_cross_delays(delays);
    shard_of_rank_.resize(static_cast<std::size_t>(p));
    for (Rank r = 0; r < p; ++r)
      shard_of_rank_[static_cast<std::size_t>(r)] =
          net::region_of_node(mapping_.node_of(r), nodes, shards);
    staged_.resize(static_cast<std::size_t>(shards));
    staged_cursor_.assign(static_cast<std::size_t>(shards), 0);
    inflight_free_par_.resize(static_cast<std::size_t>(shards));
    phase_names_par_.resize(static_cast<std::size_t>(shards));
  }

  sim_.set_deliver_hook({&Runtime::deliver_hook, this});
  for (Rank r = 0; r < p; ++r) {
    sched_at_rank(0.0, r, [this, r]() {
      tasks_[static_cast<std::size_t>(r)].start(
          [this, r]() { done_at_[static_cast<std::size_t>(r)] = now_us(); });
    });
  }
  if (use_par) {
    engine_->run([this]() { sequencer_flush(); });
  } else {
    sim_.run();
  }

  // Surface program exceptions first: a CheckError inside a rank program is
  // more informative than the secondary deadlock it may have caused.
  for (const auto& t : tasks_) t.rethrow_if_failed();

  std::ostringstream stuck;
  int stuck_count = 0;
  for (Rank r = 0; r < p; ++r) {
    if (tasks_[static_cast<std::size_t>(r)].done()) continue;
    ++stuck_count;
    if (stuck_count <= 8) {
      stuck << "\n  rank " << r;
      const auto& pending = comms_[static_cast<std::size_t>(r)]->pending_;
      if (pending.has_value()) {
        stuck << " blocked in recv(";
        if (pending->src == kAnySource) {
          stuck << "any";
        } else {
          stuck << pending->src;
        }
        if (pending->tag != kAnyTag) stuck << ", tag=" << pending->tag;
        stuck << ")";
        const std::size_t parked =
            comms_[static_cast<std::size_t>(r)]->mailbox_.size();
        if (parked > 0)
          stuck << " while " << parked
                << " non-matching message(s) sit in its mailbox";
      } else {
        stuck << " suspended outside a receive";
      }
    }
  }
  if (stuck_count > 0) {
    std::ostringstream os;
    os << "deadlock: " << stuck_count << " of " << p
       << " rank programs never finished" << stuck.str();
    if (stuck_count > 8) os << "\n  ... and " << (stuck_count - 8) << " more";
    throw DeadlockError(os.str());
  }

  RunOutcome out;
  for (Rank r = 0; r < p; ++r) {
    out.makespan_us =
        std::max(out.makespan_us, done_at_[static_cast<std::size_t>(r)]);
    // Close phases a program left open, crediting them up to its own
    // completion time, so the phase table is total even for algorithms
    // that end mid-phase.
    Comm& c = *comms_[static_cast<std::size_t>(r)];
    while (!c.phase_stack_.empty()) {
      const Comm::OpenPhase open = c.phase_stack_.back();
      c.phase_stack_.pop_back();
      const SimTime end = done_at_[static_cast<std::size_t>(r)];
      c.metrics_.phase_span(open.id, end - open.began);
      if (trace_enabled_) {
        TraceEvent e;
        e.kind = TraceEvent::Kind::kPhaseEnd;
        e.rank = r;
        e.begin_us = open.began;
        e.end_us = end;
        e.phase = open.id;
        trace_.record(e);
      }
    }
    c.metrics_.finalize();
  }
  // Shard-local phase ids (including the leftover spans just closed) fold
  // into the canonical global table only after every span is recorded.
  if (use_par) merge_shard_phases();

  std::vector<const RankMetrics*> per_rank;
  per_rank.reserve(static_cast<std::size_t>(p));
  for (Rank r = 0; r < p; ++r)
    per_rank.push_back(&comms_[static_cast<std::size_t>(r)]->metrics_);
  out.metrics = RunMetrics::aggregate(per_rank);
  out.phases = PhaseTotals::aggregate(per_rank, phase_names_);
  if (trace_enabled_) trace_.set_phase_names(phase_names_);
  out.network = net_.stats();
  const int links = net_.topology().link_space();
  out.link_busy_us.reserve(static_cast<std::size_t>(links));
  for (LinkId l = 0; l < links; ++l)
    out.link_busy_us.push_back(net_.link_busy_us(l));
  if (use_par) {
    out.events = engine_->events_executed();
    out.peak_queue_depth = engine_->peak_queue_depth();
    const sim::EngineStats es = engine_->stats();
    out.par.shards = engine_->shard_count();
    out.par.window_us = engine_->window_us();
    out.par.lookahead_min_us = engine_->min_cross_delay_us();
    out.par.lookahead_max_us = engine_->max_cross_delay_us();
    out.par.windows = es.windows;
    out.par.idle_shard_windows = es.idle_shard_windows;
    out.par.staged_xfers = es.staged_xfers;
    out.par.held_xfers = es.held_xfers;
    out.par.per_shard.reserve(es.shards.size());
    for (const sim::ShardStats& s : es.shards)
      out.par.per_shard.push_back(ParallelStats::Shard{
          s.events, s.peak_queue_depth, s.busy_windows, s.idle_windows});
  } else {
    out.events = sim_.events_executed();
    out.peak_queue_depth = sim_.peak_queue_depth();
  }
  return out;
}

}  // namespace spb::mp
