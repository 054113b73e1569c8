// Plan cache behavior on one shard — the single-lock cache spb_plan and
// ext_planner use: hit/miss accounting, fault-context and machine
// invalidation, peek, and byte-identical plans under concurrent planning
// from many threads.  LRU order and zero-capacity rejection on one shard
// are covered in tests/serve/sharded_cache_test.cpp.  Also the seeded
// replay stream that spb_plan --replay, spb_serve --demo and ext_serve
// drive through the cache: its first requests are pinned, so the three
// drivers cannot drift apart.
#include "plan/sharded_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "machine/config.h"
#include "plan/replay.h"
#include "stop/problem.h"

namespace spb::plan {
namespace {

/// The whole key space behind one lock, as in spb_plan.
constexpr std::size_t kShards = 1;
constexpr std::size_t kCapacity = ShardedPlanCache::kDefaultCapacity;

std::vector<Rank> sources_for(const machine::MachineConfig& m,
                              dist::Kind kind, int s,
                              std::uint64_t seed = 1) {
  return stop::make_problem(m, kind, s, 1024, seed).sources;
}

TEST(PlanCache, HitsMissesAndBucketReuse) {
  const machine::MachineConfig m = machine::paragon(8, 8);
  const Planner planner(m);
  ShardedPlanCache cache(kCapacity, kShards);
  const std::vector<Rank> srcs = sources_for(m, dist::Kind::kRow, 8);

  const Plan first = cache.plan(planner, srcs, 6144, "R");
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Same bucket (4096..8191), different exact length: a hit, and the plan
  // is byte-identical because pricing used the bucket representative.
  const Plan second = cache.plan(planner, srcs, 5000, "R");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(first.table_text(), second.table_text());
  EXPECT_EQ(first.planned_bytes, second.planned_bytes);

  // Next bucket: a miss.
  cache.plan(planner, srcs, 8192, "R");
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 1.0 / 3.0);
}

TEST(PlanCache, ContextAndMachineInvalidate) {
  // A fault-spec change or machine change must not serve the old plan.
  const machine::MachineConfig m8 = machine::paragon(8, 8);
  const machine::MachineConfig m16 = machine::paragon(16, 16);
  const Planner p8(m8);
  const Planner p16(m16);
  ShardedPlanCache cache(kCapacity, kShards);
  const std::vector<Rank> srcs = sources_for(m8, dist::Kind::kRow, 8);

  cache.plan(p8, srcs, 6144, "R", "");
  cache.plan(p8, srcs, 6144, "R", "drop=0.1");   // fault context differs
  cache.plan(p16, srcs, 6144, "R", "");          // machine differs
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Each variant is individually cached now.
  cache.plan(p8, srcs, 6144, "R", "");
  cache.plan(p8, srcs, 6144, "R", "drop=0.1");
  cache.plan(p16, srcs, 6144, "R", "");
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(PlanCache, PeekDoesNotTouchStats) {
  const machine::MachineConfig m = machine::paragon(8, 8);
  const Planner planner(m);
  ShardedPlanCache cache(kCapacity, kShards);
  const std::vector<Rank> srcs = sources_for(m, dist::Kind::kRow, 8);
  const Plan planned = cache.plan(planner, srcs, 6144, "R");

  Plan out;
  EXPECT_TRUE(cache.peek(planned.signature, out));
  EXPECT_EQ(out.table_text(), planned.table_text());
  const Signature other = make_signature(m, srcs, 8192, "R", "");
  EXPECT_FALSE(cache.peek(other, out));
  EXPECT_EQ(cache.stats().lookups(), 1u);  // only the original plan()
}

TEST(PlanCache, ConcurrentPlanningIsDeterministic) {
  // Many threads racing on overlapping problems: every thread must read
  // byte-identical tables, and the miss count must equal the distinct
  // signature count (capacity is ample, so order cannot matter).
  const machine::MachineConfig m = machine::paragon(8, 8);
  const Planner planner(m);
  ShardedPlanCache cache(kCapacity, kShards);

  const std::vector<dist::Kind> kinds = {dist::Kind::kRow, dist::Kind::kBand,
                                         dist::Kind::kRandom};
  const std::vector<Bytes> lens = {1024, 6144, 32768};
  struct Job {
    std::vector<Rank> sources;
    Bytes len;
    std::string label;
  };
  std::vector<Job> jobs;
  for (const dist::Kind k : kinds)
    for (const Bytes len : lens)
      jobs.push_back({sources_for(m, k, 16), len,
                      std::string(dist::kind_name(k))});

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::vector<std::vector<std::string>> seen(
      kThreads, std::vector<std::string>(jobs.size()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          const Plan p = cache.plan(planner, jobs[j].sources, jobs[j].len,
                                    jobs[j].label);
          const std::string text = p.table_text();
          if (round == 0)
            seen[static_cast<std::size_t>(th)][j] = text;
          else
            ASSERT_EQ(seen[static_cast<std::size_t>(th)][j], text);
        }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int th = 1; th < kThreads; ++th)
    EXPECT_EQ(seen[static_cast<std::size_t>(th)], seen[0]);
  // Coalescing makes the books exact: racers on an in-flight signature
  // wait for the owner's result and count as hits, so misses equal the
  // distinct signature count — the planner ran exactly once per problem.
  // (Before coalescing, every thread that found the entry absent planned
  // it again outside the lock and each counted a miss.)
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups(),
            static_cast<std::uint64_t>(kThreads) * kRounds * jobs.size());
  EXPECT_EQ(stats.misses + stats.hits, stats.lookups());
  EXPECT_EQ(stats.misses, jobs.size());
  EXPECT_EQ(cache.size(), jobs.size());
}

TEST(ReplayStream, FirstRequestsOfParagon8x8Seed7) {
  using K = dist::Kind;
  const std::vector<ReplayRequest> want = {
      {K::kDiagLeft, 16, 6389, 2}, {K::kEqual, 32, 1088, 1},
      {K::kRandom, 16, 6875, 1},   {K::kRandom, 32, 563, 3},
      {K::kEqual, 8, 1067, 3},     {K::kColumn, 8, 6646, 3},
      {K::kBand, 24, 568, 3},      {K::kDiagLeft, 16, 6568, 2}};
  ReplayStream stream(machine::paragon(8, 8).p, 7);
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const ReplayRequest r = stream.next();
    EXPECT_EQ(r.kind, want[i].kind);
    EXPECT_EQ(r.sources, want[i].sources);
    EXPECT_EQ(r.len, want[i].len);
    EXPECT_EQ(r.dist_seed, want[i].dist_seed);
  }
  EXPECT_EQ(wire_line(want[0]),
            R"({"op":"plan","dist":"Dl","sources":16,"len":6389,"seed":2})");
}

}  // namespace
}  // namespace spb::plan
