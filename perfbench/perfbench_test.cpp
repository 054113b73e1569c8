// Unit tests of the benchmark's own machinery:
//   perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <ostream>
#include <thread>

#include "inputs.h"
#include "stamp_buf.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so summarize() must sort
}

TEST(Percentile, NearestRank) {
  const std::vector<double> sorted = [] {
    auto v = iota_samples(100);
    std::sort(v.begin(), v.end());
    return v;
  }();
  EXPECT_EQ(percentile(sorted, 50), 50);
  EXPECT_EQ(percentile(sorted, 99), 99);
  EXPECT_EQ(percentile(sorted, 100), 100);
  EXPECT_EQ(percentile(sorted, 0.1), 1);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_beyond(0, 50), 0u);
}

TEST(Percentile, TailHasTenSamplesBeyond) {
  struct Case {
    std::size_t n;
    double tail_q;
  };
  for (const Case c : {Case{5, 0}, Case{99, 0}, Case{100, 90}, Case{999, 90},
                       Case{1000, 99}, Case{9999, 99}, Case{10000, 99.9},
                       Case{100000, 99.99}}) {
    const Summary s = summarize(iota_samples(c.n));
    EXPECT_EQ(s.n, c.n);
    EXPECT_EQ(s.tail_q, c.tail_q) << "n=" << c.n;
    if (c.tail_q > 0) {
      EXPECT_GE(samples_beyond(c.n, s.tail_q), 10u);
    }
  }
  const Summary s = summarize(iota_samples(1000));
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.tail, 990);
  EXPECT_EQ(summarize(iota_samples(5)).tail, 3);  // no tail: the median
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  Tracer t;
  const auto root = t.intern("root"), a = t.intern("a"), b = t.intern("b");
  const int r = t.open(root, 7, 0);
  const int c1 = t.open(a, 0, 10);
  t.close(c1, 40);
  const int c2 = t.open(b, 0, 50);
  const int g = t.open(a, 0, 60);
  t.close(g, 70);
  t.close(c2, 90);
  t.close(r, 100);

  const auto self = t.self_times();
  EXPECT_EQ(self.at("root").self_ns, 100 - 30 - 40);
  EXPECT_EQ(self.at("root").total_ns, 100);
  EXPECT_EQ(self.at("a").self_ns, 30 + 10);
  EXPECT_EQ(self.at("a").count, 2u);
  EXPECT_EQ(self.at("b").self_ns, 40 - 10);
  EXPECT_DOUBLE_EQ(self.at("a").mean_self_us(), 0.02);
  // Children inherit the root's job id and point at their parent.
  EXPECT_EQ(t.spans()[static_cast<std::size_t>(g)].job, 7u);
  EXPECT_EQ(t.spans()[static_cast<std::size_t>(g)].parent, c2);

  // Self times summed over a tree equal the root's duration.
  double sum = 0;
  for (const auto& [name, lt] : self) sum += lt.self_ns;
  EXPECT_EQ(sum, 100);
}

TEST(Tracer, CalibratedSpanCostComesOutOfTheParent) {
  Tracer t;
  t.set_enabled(true);
  t.calibrate();
  const double cost = t.span_cost_ns();
  EXPECT_GE(cost, 0);
  EXPECT_LT(cost, 10000);
  EXPECT_TRUE(t.spans().empty()) << "calibration spans are dropped";
  const auto x = t.intern("x"), y = t.intern("y");
  const int root = t.open(x, 1, 0);
  t.close(t.open(y, 0, 10), 40);
  t.close(t.open(y, 0, 50), 60);
  t.close(root, 100);
  const auto self = t.self_times();
  EXPECT_DOUBLE_EQ(self.at("x").self_ns, 100 - 30 - 10 - 2 * cost);
  EXPECT_DOUBLE_EQ(self.at("y").self_ns, 40);
}

TEST(BestOf, TakesEachJobsFastestPass) {
  // Two passes over three jobs run in the order 2, 0, 1.
  const std::vector<std::size_t> order = {2, 0, 1};
  const std::vector<double> us = {30, 10, 25, 20, 12, 20};
  const BestOf b = best_of_passes(us, order);
  // Best times: job 0 -> 10, job 1 -> 20, job 2 -> 20.
  EXPECT_DOUBLE_EQ(b.jobs_per_s, 3 * 1e6 / 50);
  EXPECT_DOUBLE_EQ(b.p50_us, 20);
}

TEST(Tracer, RangeFromMarkTreatsItsSpansAsRoots) {
  Tracer t;
  const auto x = t.intern("x");
  t.close(t.open(x, 1, 0), 5);
  const std::size_t mark = t.mark();
  const int outer = t.open(x, 2, 10);
  t.close(t.open(x, 0, 12), 15);
  t.close(outer, 20);
  const auto self = t.self_times(mark);
  EXPECT_EQ(self.at("x").count, 2u);
  EXPECT_EQ(self.at("x").self_ns, 10);
}

TEST(Tracer, DisabledSpanRecordsNothing) {
  Tracer t;
  const auto x = t.intern("x");
  { Span s(t, x, 1); }
  EXPECT_TRUE(t.spans().empty());
  t.set_enabled(true);
  {
    Span s(t, x, 1);
    Span inner(t, x);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[1].end_ns);
}

std::string all_inputs(std::uint64_t seed) {
  std::string out;
  for (const auto& combos :
       {sim_sweep_combos(seed), sim_large_combos(seed), check_combos(seed)})
    for (const Combo& c : combos) out += describe(c) + "\n";
  for (const std::size_t i : run_order(1710, seed))
    out += std::to_string(i) + ",";
  const ServeTraffic traffic(seed);
  for (std::uint64_t i = 0; i < 5000; ++i)
    out += ServeTraffic::render(traffic.request(i), i) + "\n";
  return out;
}

TEST(Inputs, SameSeedGivesByteIdenticalInputs) {
  EXPECT_EQ(all_inputs(7), all_inputs(7));
  EXPECT_NE(all_inputs(7), all_inputs(8));
}

TEST(Inputs, GridSizesAndNeverSeenRequests) {
  EXPECT_EQ(sim_sweep_combos(1).size(), 19u * 9 * 5 * 2);
  EXPECT_EQ(check_combos(1).size(), 19u * 9 * 3 + 19 * 3);
  const ServeTraffic traffic(3);
  std::size_t novel = 0;
  for (std::uint64_t i = 0; i < 2000000; ++i) {
    const ServeSpec spec = traffic.request(i);
    if (spec.template_index >= 0) continue;
    ++novel;
    EXPECT_EQ(spec.sources % 2, 1) << "template counts are even";
    EXPECT_NE(spec.dist, "Rand");
  }
  EXPECT_GT(novel, 140u);  // about 1 in 10000
  EXPECT_LT(novel, 260u);
}

TEST(StampBuf, StampsEveryLineInOrder) {
  StampBuf buf;
  std::ostream out(&buf);
  buf.reset(4);
  out << "{\"id\":0}";
  out << "\n{\"id\"";
  out.put(':');
  out << "1}\n";
  out.flush();
  EXPECT_EQ(buf.lines(), 2u);
  ASSERT_EQ(buf.stamps().size(), 2u);
  EXPECT_LE(buf.stamps()[0], buf.stamps()[1]);
  EXPECT_EQ(buf.text(), "{\"id\":0}\n{\"id\":1}\n");
  buf.reset(0);
  EXPECT_EQ(buf.lines(), 0u);
  EXPECT_TRUE(buf.text().empty());
}

TEST(StampBuf, LinesVisibleWhileAWriterRuns) {
  StampBuf buf;
  buf.reset(1000);
  std::thread writer([&buf] {
    std::ostream out(&buf);
    for (int i = 0; i < 1000; ++i) out << "line " << i << "\n";
  });
  std::uint64_t last = 0;
  while (last < 1000) {
    const std::uint64_t now = buf.lines();
    EXPECT_GE(now, last);
    last = now;
  }
  writer.join();
  EXPECT_EQ(buf.stamps().size(), 1000u);
}

}  // namespace
}  // namespace perfbench
