#include "util.h"

#include <cstdio>
#include <cstdlib>

#include "common/str.h"
#include "sweep_runner.h"

namespace spb::bench {

std::vector<double> time_ms_sweep(const std::vector<SweepCase>& cases,
                                  int jobs) {
  std::vector<double> ms(cases.size());
  const SweepRunner runner(jobs);
  runner.run(cases.size(), [&](std::size_t i) {
    ms[i] = stop::run_ms(*cases[i].algorithm, cases[i].problem);
  });
  return ms;
}

int default_jobs() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup, before
  // the SweepRunner spawns any worker thread.
  const char* env = std::getenv("SPB_BENCH_JOBS");
  if (env == nullptr || *env == '\0') return 1;
  const int jobs = std::atoi(env);
  return jobs == 0 ? SweepRunner::hardware_jobs() : jobs;
}

Checker::Checker(std::string bench_name) : name_(std::move(bench_name)) {
  std::printf("==== %s ====\n", name_.c_str());
}

void Checker::expect(bool ok, const std::string& claim) {
  ++checks_;
  if (!ok) ++failures_;
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
}

void Checker::expect_ratio(double a, double b, double lo, double hi,
                           const std::string& claim) {
  const double ratio = b != 0 ? a / b : 0;
  expect(ratio >= lo && ratio <= hi,
         claim + " (ratio " + fixed(ratio, 2) + ", want " + fixed(lo, 2) +
             ".." + fixed(hi, 2) + ")");
}

int Checker::exit_code() const {
  std::printf("---- %s: %d/%d checks passed ----\n\n", name_.c_str(),
              checks_ - failures_, checks_);
  return failures_ == 0 ? 0 : 1;
}

}  // namespace spb::bench
