#include "mp/runtime.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace spb::mp {

// ----------------------------------------------------------------- Comm

int Comm::size() const { return rt_->size(); }

SimTime Comm::now() const { return rt_->sim_.now(); }

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
  phase_stack_.push_back(OpenPhase{id, rt_->sim_.now()});
  if (rt_->trace_enabled_) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kPhaseBegin;
    e.rank = rank_;
    e.begin_us = e.end_us = rt_->sim_.now();
    e.phase = id;
    rt_->trace_.record(e);
  }
}

void Comm::end_phase() {
  SPB_REQUIRE(!phase_stack_.empty(),
              "rank " << rank_ << ": end_phase() without begin_phase()");
  const OpenPhase open = phase_stack_.back();
  phase_stack_.pop_back();
  const SimTime now = rt_->sim_.now();
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
  const SimTime now = rt.sim_.now();
  const Bytes wire = wire_override > 0 ? wire_override : c.wire_bytes(payload);

  const int send_op =
      rt.schedule_enabled_
          ? rt.schedule_.record_send(c.rank_, dst, tag, wire, payload)
          : -1;

  c.metrics_.on_send(wire, c.current_phase());

  // Message faults need a per-(src, dst) sequence number for duplicate
  // suppression, counted per destination this sender actually uses.
  const bool message_faults = rt.message_faults_;
  std::int32_t seq = -1;
  if (message_faults) seq = static_cast<std::int32_t>(c.next_seq_[dst]++);

  const SimTime ready =
      now + (cp.send_overhead_us + cp.mpi_extra_us) * rt.slowdown(c.rank_);

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

  // The one write of the message: every field goes straight into the
  // in-flight pool, the payload moved in, and the delivery event carries
  // only its slot.
  const std::uint32_t slot = rt.alloc_inflight();
  Message& m = rt.inflight_[slot];
  m.src = c.rank_;
  m.dst = dst;
  m.tag = tag;
  m.payload = std::move(payload);
  m.wire_bytes = wire;
  m.sent_at = now;
  m.arrived_at = t.arrive;
  m.sched_send_op = send_op;
  m.seq = seq;
  m.duplicate = false;
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
  called_at = rt.sim_.now();

  if (rt.schedule_enabled_)
    sched_op = rt.schedule_.record_recv_post(c.rank_, src, tag);

  if (const std::optional<std::uint32_t> hit = c.mailbox_.take(src, tag)) {
    blocked = false;
    slot = *hit;
    rt.sim_.resume_at(
        called_at +
            (cp.recv_overhead_us + cp.mpi_extra_us) * rt.slowdown(c.rank_),
        h);
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
                                   m.payload);
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
    e.end_us = rt.sim_.now();
    e.blocked = blocked;
    e.phase = c.current_phase();
    rt.trace_.record(e);
  }
  return m;
}

void Comm::ComputeAwaiter::await_suspend(std::coroutine_handle<> h) {
  Runtime& rt = *comm->rt_;
  const double actual = us * rt.slowdown(comm->rank_);
  const SimTime now = rt.sim_.now();
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
  rt.sim_.resume_at(now + actual, h);
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
  message_faults_ = plan_ != nullptr && plan_->spec().message_faults();
}

std::uint32_t Runtime::alloc_inflight() {
  if (!inflight_free_.empty()) {
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

int Runtime::phase_id(std::string_view name) {
  SPB_REQUIRE(!name.empty(), "phase names must be non-empty");
  // Runs annotate a handful of phases; a linear scan beats a map here.
  for (std::size_t i = 0; i < phase_names_.size(); ++i)
    if (phase_names_[i] == name) return static_cast<int>(i);
  phase_names_.emplace_back(name);
  return static_cast<int>(phase_names_.size() - 1);
}

void Runtime::sched_retransmit(SimTime t, std::uint32_t slot, int attempt) {
  sim_.at(t, [this, slot, attempt]() {
    retransmit(slot, attempt, sim_.now());
  });
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

  sim_.deliver_at(t.arrive, slot);
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
      sim_.resume_at(
          sim_.now() +
              (params_.recv_overhead_us + params_.mpi_extra_us) * slowdown(r),
          h);
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

  sim_.set_deliver_hook({&Runtime::deliver_hook, this});
  for (Rank r = 0; r < p; ++r) {
    sim_.at(0.0, [this, r]() {
      tasks_[static_cast<std::size_t>(r)].start(
          [this, r]() { done_at_[static_cast<std::size_t>(r)] = sim_.now(); });
    });
  }
  // The recording is over however the loop ends: index it either way, so
  // a failed run leaves a readable schedule too.
  try {
    sim_.run();
  } catch (...) {
    schedule_.index_ranks();
    throw;
  }
  schedule_.index_ranks();

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
  out.events = sim_.events_executed();
  out.peak_queue_depth = sim_.peak_queue_depth();
  return out;
}

}  // namespace spb::mp
