// Determinism and thread-safety of the parallel sweep layer.
//
// The sweep runner claims work with an atomic cursor and writes results
// into index-addressed slots, so a parallel sweep must produce the same
// bytes as a serial one for any job count.  These tests run the real
// spb_check combos (full record + static checks, or record + model
// checking, per combination) across threads — under TSan they double as
// the data-race check for everything a combination touches (runtime,
// simulator, network model, ideal-placement memo, explorer).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/distribution.h"
#include "fault/fault.h"
#include "dist/ideal.h"
#include "machine/config.h"
#include "stop/algorithm.h"
#include "sweep_runner.h"
#include "verify/sweep.h"

namespace spb {
namespace {

std::vector<verify::SweepCombo> paragon4x4_grid() {
  std::vector<verify::SweepCombo> grid;
  const machine::MachineConfig machine = machine::paragon(4, 4);
  for (const stop::AlgorithmPtr& alg : stop::all_algorithms())
    for (const dist::Kind kind : dist::all_kinds())
      grid.push_back({"paragon4x4", machine, alg, kind});
  return grid;
}

std::string sweep_text(const std::vector<verify::SweepCombo>& grid,
                       int jobs, const verify::SweepOptions& sopt = {}) {
  std::vector<verify::ComboResult> results(grid.size());
  const bench::SweepRunner runner(jobs);
  runner.run(grid.size(), [&](std::size_t i) {
    results[i] = verify::check_combo(grid[i], sopt);
  });
  std::string text;
  for (const verify::ComboResult& r : results) text += r.text;
  return text;
}

TEST(ConcurrentSweep, ParallelByteIdenticalToSerial) {
  const std::vector<verify::SweepCombo> grid = paragon4x4_grid();
  ASSERT_GT(grid.size(), 100u);
  const std::string serial = sweep_text(grid, 1);
  EXPECT_EQ(sweep_text(grid, 2), serial);
  EXPECT_EQ(sweep_text(grid, 7), serial);  // more jobs than a small grid slice
}

TEST(ConcurrentSweep, FaultedSweepByteIdenticalToSerial) {
  // Fault decisions are stateless hashes of (seed, identifiers), so a
  // faulted sweep must stay byte-identical across job counts — each combo
  // builds its own plan and no worker order can leak into the decisions.
  // Under TSan this also races the fault plan sharing inside one combo.
  const std::vector<verify::SweepCombo> grid = paragon4x4_grid();
  verify::SweepOptions sopt;
  sopt.faults =
      fault::FaultSpec::parse("drop=0.1,dup=0.05,links=0.25x4,straggle=1x3");
  sopt.fault_seed = 42;
  const std::string serial = sweep_text(grid, 1, sopt);
  EXPECT_NE(serial, sweep_text(grid, 1));  // the faults really did bite
  EXPECT_EQ(sweep_text(grid, 4, sopt), serial);
}

TEST(ConcurrentSweep, CertifySweepByteIdenticalToSerial) {
  // The model checker on several threads at once: every algorithm x
  // distribution certified, plus the seeded mutants of one distribution.
  const std::vector<verify::SweepCombo> grid = paragon4x4_grid();
  verify::SweepOptions sopt;
  sopt.certify = true;
  const std::string serial = sweep_text(grid, 1, sopt);
  EXPECT_NE(serial.find("certified"), std::string::npos);
  EXPECT_EQ(sweep_text(grid, 4, sopt), serial);

  std::vector<verify::SweepCombo> row;
  for (const verify::SweepCombo& c : grid)
    if (c.kind == dist::Kind::kRow) row.push_back(c);
  sopt.mutations = {analyze::Mutation::kDropSend,
                    analyze::Mutation::kTagMismatch,
                    analyze::Mutation::kCyclicWait};
  const std::string mutants = sweep_text(row, 1, sopt);
  EXPECT_NE(mutants.find("rejected"), std::string::npos);
  EXPECT_EQ(sweep_text(row, 4, sopt), mutants);
}

TEST(SweepRunner, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  const bench::SweepRunner runner(4);
  runner.run(n, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(SweepRunner, ZeroTasksIsANoop) {
  const bench::SweepRunner runner(4);
  runner.run(0, [](std::size_t) { FAIL() << "task invoked for empty range"; });
}

TEST(SweepRunner, PropagatesWorkerException) {
  const bench::SweepRunner runner(3);
  EXPECT_THROW(runner.run(100,
                          [](std::size_t i) {
                            if (i == 42)
                              throw std::runtime_error("combo 42 failed");
                          }),
               std::runtime_error);
}

TEST(SweepRunner, ClampsJobsToAtLeastOne) {
  EXPECT_GE(bench::SweepRunner(0).jobs(), 1);
  EXPECT_GE(bench::SweepRunner::hardware_jobs(), 1);
}

TEST(ConcurrentIdealCache, ManyThreadsSameAnswers) {
  // The ideal-placement memo is the one shared mutable structure the
  // parallel sweep exercises; hammer one (n, k) set from many threads and
  // compare every result against a single-threaded reference.
  const std::vector<std::pair<int, int>> queries = {
      {16, 4}, {16, 5}, {64, 7}, {64, 8}, {100, 30}, {100, 31}, {128, 9}};
  std::vector<std::vector<int>> reference;
  for (const auto& [n, k] : queries)
    reference.push_back(dist::ideal_positions(n, k));

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        for (std::size_t q = 0; q < queries.size(); ++q) {
          const auto& [n, k] = queries[q];
          if (dist::ideal_positions(n, k) != reference[q]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(IdealPositions, ColdKeyDoesNotDelayWarmKeys) {
  // One thread searches a cold key that takes a few hundred milliseconds;
  // meanwhile this thread asks for a warm key and for a small cold one.
  // Neither may wait for the long search: both must return well before
  // it ends.
  using Clock = std::chrono::steady_clock;
  const std::vector<int> warm = dist::ideal_positions(16, 4);
  std::atomic<bool> started{false};
  Clock::time_point long_end;
  std::vector<int> long_key;
  std::thread searcher([&] {
    started.store(true);
    long_key = dist::ideal_positions(384, 96);
    long_end = Clock::now();
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // in its search
  const Clock::time_point t0 = Clock::now();
  const std::vector<int> warm_again = dist::ideal_positions(16, 4);
  const std::vector<int> small_cold = dist::ideal_positions(48, 12);
  const Clock::time_point t1 = Clock::now();
  searcher.join();

  EXPECT_EQ(warm_again, warm);
  EXPECT_EQ(small_cold.size(), 12u);
  EXPECT_EQ(long_key.size(), 96u);
  EXPECT_LT(t1, long_end) << "a warm or small key waited for the long search";
  EXPECT_LT(t1 - t0, (long_end - t0) / 4);
}

}  // namespace
}  // namespace spb
