#include "sim/simulator.h"

#include <utility>

#include "common/check.h"

namespace spb::sim {

void Simulator::check_time(SimTime t) const {
  SPB_REQUIRE(t >= now_, "cannot schedule an event in the past (t="
                             << t << ", now=" << now_ << ")");
}

void Simulator::at(SimTime t, EventFn fn) {
  check_time(t);
  queue_.push(t, std::move(fn));
}

void Simulator::after(SimTime delay, EventFn fn) {
  SPB_REQUIRE(delay >= 0, "negative delay " << delay);
  queue_.push(now_ + delay, std::move(fn));
}

void Simulator::resume_at(SimTime t, std::coroutine_handle<> h) {
  check_time(t);
  queue_.push_resume(t, h);
}

void Simulator::deliver_at(SimTime t, std::uint32_t slot) {
  check_time(t);
  SPB_REQUIRE(deliver_.fn != nullptr,
              "deliver_at() without a delivery hook installed");
  queue_.push_deliver(t, slot);
}

void Simulator::step() {
  Event e = queue_.pop();
  SPB_CHECK(e.time >= now_);
  now_ = e.time;
  ++executed_;
  e.run(deliver_);
}

SimTime Simulator::run() {
  while (!queue_.empty()) step();
  return now_;
}

bool Simulator::run_bounded(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events && !queue_.empty(); ++i) step();
  return queue_.empty();
}

}  // namespace spb::sim
