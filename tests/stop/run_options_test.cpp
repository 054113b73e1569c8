// RunOptions behaviour: tracing through the harness, verification toggles,
// and the fluent RunConfig builder lowering onto the same aggregate.
#include <gtest/gtest.h>

#include "stop/algorithm.h"
#include "stop/run.h"

namespace spb::stop {
namespace {

TEST(RunConfig, DefaultLowersToDefaultRunOptions) {
  constexpr RunOptions lowered = RunConfig{};
  static_assert(lowered.verify && !lowered.trace && !lowered.record_schedule &&
                !lowered.link_stats);
  EXPECT_FALSE(lowered.faults.any());
  EXPECT_EQ(lowered.fault_seed, RunOptions{}.fault_seed);
}

TEST(RunConfig, SimThreadsChangesNothing) {
  // perfbench's sim_large probe fingerprints runs made through
  // sim_threads(n) and relies on them equalling the default run.
  const auto machine = machine::paragon(6, 6);
  const Problem pb = make_problem(machine, dist::Kind::kRandom, 9, 4096, 3);
  const auto alg = make_br_lin();
  const RunResult plain = run(*alg, pb);
  const RunResult threaded = run(*alg, pb, RunConfig{}.sim_threads(8));
  EXPECT_EQ(threaded.time_us, plain.time_us);
  EXPECT_EQ(threaded.outcome.events, plain.outcome.events);
  const mp::RunMetrics& a = threaded.outcome.metrics;
  const mp::RunMetrics& b = plain.outcome.metrics;
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.max_waits, b.max_waits);
  EXPECT_EQ(a.max_send_recv, b.max_send_recv);
  EXPECT_EQ(a.av_msg_lgth, b.av_msg_lgth);
  EXPECT_EQ(a.av_act_proc, b.av_act_proc);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_TRUE(threaded.outcome.par.per_shard.empty());
  EXPECT_EQ(threaded.outcome.par.windows, 0u);
}

TEST(RunConfig, FluentChainsSetEveryKnob) {
  fault::FaultSpec spec;
  spec.drop_rate = 0.25;
  const RunOptions o = RunConfig{}
                           .no_verify()
                           .trace()
                           .record_schedule()
                           .link_stats()
                           .faults(spec, 9);
  EXPECT_FALSE(o.verify);
  EXPECT_TRUE(o.trace);
  EXPECT_TRUE(o.record_schedule);
  EXPECT_TRUE(o.link_stats);
  EXPECT_TRUE(o.faults.any());
  EXPECT_EQ(o.fault_seed, 9u);
  // Toggles take an explicit off too.
  EXPECT_FALSE(RunConfig{}.trace().trace(false).options().trace);
}

TEST(RunConfig, FeedsRunLikeTheAggregate) {
  const auto machine = machine::paragon(2, 3);
  const Problem pb = make_problem(machine, dist::Kind::kEqual, 2, 256);
  const auto alg = make_br_lin();
  const RunResult via_config = run(*alg, pb, RunConfig{}.trace());
  const RunResult via_aggregate = run(*alg, pb, {.verify = true, .trace = true});
  EXPECT_DOUBLE_EQ(via_config.time_us, via_aggregate.time_us);
  EXPECT_EQ(via_config.trace.size(), via_aggregate.trace.size());
}

TEST(RunOptions, TraceIsOffByDefaultAndOnOnRequest) {
  const auto machine = machine::paragon(2, 3);
  const Problem pb = make_problem(machine, dist::Kind::kEqual, 2, 256);
  const auto alg = make_br_lin();

  const RunResult plain = run(*alg, pb);
  EXPECT_TRUE(plain.trace.empty());

  const RunResult traced = run(*alg, pb, {.verify = true, .trace = true});
  EXPECT_FALSE(traced.trace.empty());
  // Tracing must not perturb the simulation.
  EXPECT_DOUBLE_EQ(traced.time_us, plain.time_us);
  // Every metric-counted send appears in the trace.
  std::size_t sends = 0;
  for (const auto& e : traced.trace.events())
    if (e.kind == mp::TraceEvent::Kind::kSend) ++sends;
  EXPECT_EQ(sends, traced.outcome.metrics.total_sends);
}

TEST(RunOptions, TraceHorizonMatchesMakespan) {
  const auto machine = machine::paragon(3, 3);
  const Problem pb = make_problem(machine, dist::Kind::kRandom, 4, 512, 8);
  const RunResult r = run(*make_br_xy_source(), pb, RunConfig{}.trace());
  // The last handed-over receive is what completes the slowest rank.
  EXPECT_NEAR(r.trace.horizon_us(), r.time_us, 1e-9);
}

}  // namespace
}  // namespace spb::stop
