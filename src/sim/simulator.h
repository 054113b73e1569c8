// The simulation clock and main loop.  Single-threaded, deterministic:
// callbacks run strictly in (time, insertion) order, and the clock never
// goes backwards.  Everything in spb — the network model, the message-
// passing runtime, the rank coroutines — is driven from this loop.
#pragma once

#include <coroutine>
#include <cstdint>

#include "common/types.h"
#include "sim/event_queue.h"

namespace spb::sim {

class Simulator {
 public:
  /// Current simulated time in microseconds.
  SimTime now() const { return now_; }

  /// Schedules fn at absolute time t (t must be >= now()).
  void at(SimTime t, EventFn fn);

  /// Schedules fn after a non-negative delay.
  void after(SimTime delay, EventFn fn);

  /// Schedules a resume of h at absolute time t (t >= now()); the entry
  /// is typed, so no closure is built.
  void resume_at(SimTime t, std::coroutine_handle<> h);

  /// Schedules the delivery of in-flight message `slot` at absolute time t
  /// (t >= now()) through the hook installed with set_deliver_hook.
  void deliver_at(SimTime t, std::uint32_t slot);

  /// Installs the receiver of deliver_at entries.
  void set_deliver_hook(DeliverHook hook) { deliver_ = hook; }

  /// Runs until the event queue is empty.  Returns the final clock value.
  SimTime run();

  /// Runs at most max_events events (guard against runaway simulations in
  /// tests); returns true if the queue drained.
  bool run_bounded(std::uint64_t max_events);

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// High-water mark of the pending-event queue (see EventQueue::peak_size).
  std::size_t peak_queue_depth() const { return queue_.peak_size(); }

  bool idle() const { return queue_.empty(); }

 private:
  void step();
  void check_time(SimTime t) const;

  EventQueue queue_;
  DeliverHook deliver_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace spb::sim
