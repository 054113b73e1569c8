// Unit tests of the fault-injection library itself: spec parsing, plan
// determinism, and the delivery guarantees the runtime machinery depends
// on (the final attempt is never dropped, backoff is bounded).
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"

namespace spb::fault {
namespace {

TEST(FaultSpec, DefaultIsNoFaults) {
  constexpr FaultSpec off{};
  static_assert(!off.any());
  static_assert(!off.message_faults());
  static_assert(!off.degrades_links());
  EXPECT_EQ(off.to_string(), "");
  EXPECT_NO_THROW(off.validate());
}

TEST(FaultSpec, ParseRoundTripsThroughToString) {
  const FaultSpec spec = FaultSpec::parse(
      "drop=0.1,dup=0.05,links=0.25x4,lat=2,straggle=1x3,window=5000,"
      "timeout=80,attempts=6");
  EXPECT_DOUBLE_EQ(spec.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.dup_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec.link_fraction, 0.25);
  EXPECT_DOUBLE_EQ(spec.bandwidth_divisor, 4.0);
  EXPECT_DOUBLE_EQ(spec.latency_factor, 2.0);
  EXPECT_EQ(spec.stragglers, 1);
  EXPECT_DOUBLE_EQ(spec.straggle_factor, 3.0);
  EXPECT_DOUBLE_EQ(spec.window_us, 5000.0);
  EXPECT_DOUBLE_EQ(spec.retransmit_timeout_us, 80.0);
  EXPECT_EQ(spec.max_attempts, 6);

  const FaultSpec again = FaultSpec::parse(spec.to_string());
  EXPECT_EQ(again.to_string(), spec.to_string());
  EXPECT_DOUBLE_EQ(again.drop_rate, spec.drop_rate);
  EXPECT_DOUBLE_EQ(again.bandwidth_divisor, spec.bandwidth_divisor);
  EXPECT_EQ(again.max_attempts, spec.max_attempts);
}

TEST(FaultSpec, ParseRejectsUnknownAndMalformed) {
  EXPECT_THROW(FaultSpec::parse("frobnicate=1"), CheckError);
  EXPECT_THROW(FaultSpec::parse("drop"), CheckError);
  EXPECT_THROW(FaultSpec::parse("drop=1.5"), CheckError);   // rate >= 1
  EXPECT_THROW(FaultSpec::parse("drop=-0.1"), CheckError);
  EXPECT_THROW(FaultSpec::parse("links=2x4"), CheckError);  // fraction > 1
  EXPECT_THROW(FaultSpec::parse("attempts=0"), CheckError);
  EXPECT_NO_THROW(FaultSpec::parse(""));
}

// The strict parser (common/parse.h) must turn the classic std::stod /
// std::stoull traps into actionable errors instead of silent surprises.
TEST(FaultSpec, ParseErrorsSayWhatWentWrong) {
  const auto message_of = [](const std::string& text) -> std::string {
    try {
      FaultSpec::parse(text);
    } catch (const CheckError& e) {
      return e.what();
    }
    return "";
  };
  // drop=-1 is numerically fine but out of the allowed range.
  EXPECT_NE(message_of("drop=-1").find("must be in [0, 1)"),
            std::string::npos);
  // lat=1e999 overflows a double; stod's bare out_of_range had no text.
  EXPECT_NE(message_of("lat=1e999").find("out of range"), std::string::npos);
  // timeout=5x is a partial parse; the leftover must be named.
  EXPECT_NE(message_of("timeout=5x").find("trailing junk 'x'"),
            std::string::npos);
  // Non-finite spellings are not usable fault parameters.
  EXPECT_NE(message_of("lat=inf").find("finite"), std::string::npos);
}

TEST(FaultPlan, ParsePlanRejectsNegativeSeed) {
  // std::stoull would wrap "-1" to 2^64-1 and silently change every
  // seeded decision in the plan.
  try {
    parse_plan("-1:drop=0.1", /*link_space=*/10, /*ranks=*/4, 1);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("negative"), std::string::npos);
  }
  // A valid seed still parses.
  EXPECT_NO_THROW(parse_plan("7:drop=0.1", 10, 4, 1));
}

TEST(FaultPlan, SameSeedSameDecisions) {
  const FaultSpec spec =
      FaultSpec::parse("drop=0.3,dup=0.1,links=0.25x4,straggle=2x3");
  const FaultPlan a(spec, 7, /*link_space=*/200, /*ranks=*/16);
  const FaultPlan b(spec, 7, 200, 16);
  EXPECT_EQ(a.degraded_links(), b.degraded_links());
  EXPECT_EQ(a.straggler_ranks(), b.straggler_ranks());
  for (Rank src = 0; src < 16; ++src)
    for (std::uint32_t seq = 0; seq < 40; ++seq)
      for (int attempt = 0; attempt < 4; ++attempt) {
        ASSERT_EQ(a.transit_dropped(src, 15 - src, seq, attempt),
                  b.transit_dropped(src, 15 - src, seq, attempt));
        ASSERT_EQ(a.ack_dropped(src, 15 - src, seq, attempt),
                  b.ack_dropped(src, 15 - src, seq, attempt));
      }
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  // 2560 independent ~30% coin flips: the chance two seeds agree on all of
  // them is astronomically small, so equality means the seed is ignored.
  const FaultSpec spec = FaultSpec::parse("drop=0.3");
  const FaultPlan a(spec, 1, 200, 16);
  const FaultPlan b(spec, 2, 200, 16);
  int differing = 0;
  for (Rank src = 0; src < 16; ++src)
    for (std::uint32_t seq = 0; seq < 40; ++seq)
      for (int attempt = 0; attempt < 4; ++attempt)
        if (a.transit_dropped(src, (src + 1) % 16, seq, attempt) !=
            b.transit_dropped(src, (src + 1) % 16, seq, attempt))
          ++differing;
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, LastAttemptIsNeverDropped) {
  // Even at a 99% drop rate, attempt max_attempts-1 always goes through —
  // this is the delivery guarantee stop::verify rests on.
  const FaultSpec spec = FaultSpec::parse("drop=0.99,attempts=3");
  const FaultPlan plan(spec, 11, 200, 32);
  int dropped_earlier = 0;
  for (Rank src = 0; src < 32; ++src)
    for (std::uint32_t seq = 0; seq < 50; ++seq) {
      EXPECT_FALSE(plan.transit_dropped(src, (src + 5) % 32, seq, 2));
      if (plan.transit_dropped(src, (src + 5) % 32, seq, 0))
        ++dropped_earlier;
    }
  // Sanity: the earlier attempts really are dropped at ~99%.
  EXPECT_GT(dropped_earlier, 1500);
}

TEST(FaultPlan, BackoffDoublesAndCapsAt32x) {
  const FaultSpec spec = FaultSpec::parse("drop=0.1,timeout=50");
  const FaultPlan plan(spec, 1, 10, 4);
  EXPECT_DOUBLE_EQ(plan.backoff_us(0), 50.0);
  EXPECT_DOUBLE_EQ(plan.backoff_us(1), 100.0);
  EXPECT_DOUBLE_EQ(plan.backoff_us(4), 800.0);
  EXPECT_DOUBLE_EQ(plan.backoff_us(5), 1600.0);
  EXPECT_DOUBLE_EQ(plan.backoff_us(9), 1600.0);  // capped
}

TEST(FaultPlan, SeededChoicesHaveTheRequestedSizes) {
  const FaultSpec spec = FaultSpec::parse("links=0.25x4,straggle=2x3");
  const FaultPlan plan(spec, 42, /*link_space=*/100, /*ranks=*/16);
  EXPECT_EQ(plan.degraded_links().size(),
            static_cast<std::size_t>(std::ceil(0.25 * 100)));
  EXPECT_TRUE(std::is_sorted(plan.degraded_links().begin(),
                             plan.degraded_links().end()));
  for (const LinkId l : plan.degraded_links()) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 100);
    EXPECT_TRUE(plan.link_degraded(l));
    EXPECT_DOUBLE_EQ(plan.bandwidth_divisor(l), 4.0);
  }
  ASSERT_EQ(plan.straggler_ranks().size(), 2u);
  for (const Rank r : plan.straggler_ranks())
    EXPECT_DOUBLE_EQ(plan.rank_slowdown(r), 3.0);
  int healthy = 0;
  for (Rank r = 0; r < 16; ++r)
    if (plan.rank_slowdown(r) == 1.0) ++healthy;
  EXPECT_EQ(healthy, 14);
}

TEST(FaultPlan, ForLinksHookDegradesExactlyTheGivenLinks) {
  const FaultSpec spec = FaultSpec::parse("links=0.5x4,lat=2");
  const FaultPlan plan =
      FaultPlan::for_links(spec, 1, {3, 7}, /*link_space=*/10, /*ranks=*/4);
  EXPECT_TRUE(plan.link_degraded(3));
  EXPECT_TRUE(plan.link_degraded(7));
  EXPECT_FALSE(plan.link_degraded(4));
  EXPECT_DOUBLE_EQ(plan.bandwidth_divisor(3), 4.0);
  EXPECT_DOUBLE_EQ(plan.latency_factor(7), 2.0);
  EXPECT_DOUBLE_EQ(plan.bandwidth_divisor(4), 1.0);
  EXPECT_EQ(plan.degraded_links(), (std::vector<LinkId>{3, 7}));
}

TEST(FaultPlan, WindowsAlternateAndZeroMeansAlways) {
  const FaultSpec windowed = FaultSpec::parse("links=0.2x2,window=100");
  const FaultPlan plan(windowed, 1, 50, 4);
  EXPECT_EQ(plan.window_index(50.0), 0u);
  EXPECT_EQ(plan.window_index(150.0), 1u);
  EXPECT_EQ(plan.window_index(250.0), 2u);
  EXPECT_TRUE(plan.window_active(50.0));    // even window: degraded
  EXPECT_FALSE(plan.window_active(150.0));  // odd window: healthy
  EXPECT_TRUE(plan.window_active(250.0));

  const FaultSpec permanent = FaultSpec::parse("links=0.2x2");
  const FaultPlan always(permanent, 1, 50, 4);
  EXPECT_EQ(always.window_index(1e9), 0u);
  EXPECT_TRUE(always.window_active(0.0));
  EXPECT_TRUE(always.window_active(1e9));
}

TEST(ParsePlan, SeedPrefixAndDefault) {
  const FaultPlanPtr with_seed = parse_plan("42:drop=0.1", 10, 4);
  EXPECT_EQ(with_seed->seed(), 42u);
  EXPECT_DOUBLE_EQ(with_seed->spec().drop_rate, 0.1);

  const FaultPlanPtr bare = parse_plan("drop=0.1", 10, 4, /*default_seed=*/7);
  EXPECT_EQ(bare->seed(), 7u);
  EXPECT_THROW(parse_plan("nonsense:drop=0.1", 10, 4), CheckError);
}

TEST(ParsePlan, SeededSpecKeepsSeedSpecAndText) {
  const SeededSpec f = parse_seeded("42:drop=0.1", "--faults");
  EXPECT_EQ(f.seed, 42u);
  EXPECT_DOUBLE_EQ(f.spec.drop_rate, 0.1);
  EXPECT_EQ(f.text, "42:drop=0.1");

  const SeededSpec bare = parse_seeded("drop=0.1", "--faults", 7);
  EXPECT_EQ(bare.seed, 7u);
  EXPECT_EQ(bare.text, "drop=0.1");
  EXPECT_FALSE(parse_seeded("").spec.any());

  // The CLIs and the serve protocol name where the bad seed came from.
  try {
    parse_seeded("x:drop=0.1", "--faults");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("fault seed in --faults 'x'"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace spb::fault
