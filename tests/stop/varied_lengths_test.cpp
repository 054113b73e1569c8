// Different-length messages (paper Section 5): "using different length
// messages did not influence the performance of the algorithms
// significantly.  In particular, for a given algorithm, a good
// distribution remains a good distribution when the length of messages
// varies."
#include <gtest/gtest.h>

#include "common/check.h"
#include "stop/algorithm.h"
#include "stop/run.h"
#include "stop/verify.h"

namespace spb::stop {
namespace {

TEST(VariedLengths, MessageLengthsAreCappedAtTheWireLimit) {
  const auto machine = machine::paragon(4, 4);
  const Problem at_cap =
      make_problem(machine, dist::Kind::kEqual, 8, kMaxMessageBytes);
  // 2^64 - 1 used to wrap the wire size (header + L) to a few bytes.
  for (const Bytes len : {kMaxMessageBytes + 1, ~Bytes{0}}) {
    EXPECT_THROW(make_problem(machine, dist::Kind::kEqual, 4, len), CheckError);
    EXPECT_THROW(make_problem(machine, {0, 5}, len), CheckError);
  }
  // Jitter around the cap pushes some per-source length above it.
  EXPECT_THROW(with_varied_lengths(at_cap, 0.5, 3), CheckError);
}

TEST(VariedLengths, EveryAlgorithmBroadcastsCorrectly) {
  const auto machine = machine::paragon(6, 8);
  Problem pb = make_problem(machine, dist::Kind::kEqual, 12, 2048);
  pb = with_varied_lengths(std::move(pb), /*spread=*/0.5, /*seed=*/11);
  // The jitter actually produced distinct sizes.
  bool distinct = false;
  for (std::size_t i = 1; i < pb.per_source_bytes.size(); ++i)
    distinct |= pb.per_source_bytes[i] != pb.per_source_bytes[0];
  ASSERT_TRUE(distinct);
  for (const auto& alg : all_algorithms()) {
    const RunResult r = run(*alg, pb);
    EXPECT_TRUE(verify_broadcast(pb, r.final_payloads).ok) << alg->name();
  }
}

TEST(VariedLengths, ExpectedPayloadCarriesPerSourceSizes) {
  auto machine = machine::paragon(2, 2);
  Problem pb = make_problem(machine, std::vector<Rank>{0, 3}, 100);
  pb.per_source_bytes = {70, 130};
  pb.validate();
  EXPECT_EQ(expected_payload(pb), mp::Payload::of({{0, 70}, {3, 130}}));
  EXPECT_EQ(pb.bytes_of_source(0), 70u);
  EXPECT_EQ(pb.bytes_of_source(1), 130u);
}

TEST(VariedLengths, ValidationCatchesMisalignedSizes) {
  auto machine = machine::paragon(2, 2);
  Problem pb = make_problem(machine, std::vector<Rank>{0, 3}, 100);
  pb.per_source_bytes = {70};
  EXPECT_THROW(pb.validate(), CheckError);
  pb.per_source_bytes = {70, 0};
  EXPECT_THROW(pb.validate(), CheckError);
  EXPECT_THROW(with_varied_lengths(pb, 1.5, 1), CheckError);
}

TEST(VariedLengths, JitterIsSeededAndBounded) {
  const auto machine = machine::paragon(4, 4);
  const Problem base = make_problem(machine, dist::Kind::kEqual, 8, 1000);
  const Problem a = with_varied_lengths(base, 0.3, 5);
  const Problem b = with_varied_lengths(base, 0.3, 5);
  const Problem c = with_varied_lengths(base, 0.3, 6);
  EXPECT_EQ(a.per_source_bytes, b.per_source_bytes);
  EXPECT_NE(a.per_source_bytes, c.per_source_bytes);
  for (const Bytes v : a.per_source_bytes) {
    EXPECT_GE(v, 700u);
    EXPECT_LE(v, 1300u);
  }
}

TEST(VariedLengths, GoodDistributionsStayGood) {
  // The paper's claim: the distribution ranking is stable under length
  // variation.  Row must stay cheaper than cross for Br_xy_source whether
  // lengths are uniform or jittered by +-50%.
  const auto machine = machine::paragon(10, 10);
  const auto alg = make_br_xy_source();
  const Problem row_u = make_problem(machine, dist::Kind::kRow, 30, 4096);
  const Problem cross_u =
      make_problem(machine, dist::Kind::kCross, 30, 4096);
  EXPECT_LT(run_ms(*alg, row_u), run_ms(*alg, cross_u));
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Problem row_v = with_varied_lengths(row_u, 0.5, seed);
    const Problem cross_v = with_varied_lengths(cross_u, 0.5, seed);
    EXPECT_LT(run_ms(*alg, row_v), run_ms(*alg, cross_v))
        << "seed " << seed;
  }
}

TEST(VariedLengths, PerformanceStaysCloseToUniform) {
  // "...did not influence the performance significantly": same total
  // volume, jittered sizes, within a modest band of the uniform run.
  const auto machine = machine::paragon(8, 8);
  for (const auto& alg :
       {make_br_lin(), make_two_step(false), make_pers_alltoall(false)}) {
    const Problem uniform =
        make_problem(machine, dist::Kind::kEqual, 16, 4096);
    const Problem varied = with_varied_lengths(uniform, 0.4, 9);
    const double u = run_ms(*alg, uniform);
    const double v = run_ms(*alg, varied);
    EXPECT_GT(v, u * 0.7) << alg->name();
    EXPECT_LT(v, u * 1.3) << alg->name();
  }
}

}  // namespace
}  // namespace spb::stop
