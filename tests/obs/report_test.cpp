// Run-report exporter: the JSON document parses, carries the acceptance
// combo's sections, and the phase table is consistent with the run totals.
#include "obs/report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "serve/json_value.h"
#include "stop/algorithm.h"
#include "stop/problem.h"
#include "stop/run.h"

namespace spb::obs {
namespace {

/// Well-formed JSON by the library reader.
bool parses(const std::string& text) {
  serve::JsonValue v;
  return serve::parse_json(text, v).ok;
}

struct Produced {
  stop::RunResult result;
  machine::MachineConfig machine;
  std::string json;
};

Produced produce_report() {
  Produced p;
  p.machine = machine::paragon(4, 4);
  const stop::Problem pb =
      stop::make_problem(p.machine, dist::Kind::kRow, 4, 1024);
  p.result = stop::run(*stop::make_two_step(false), pb,
                       stop::RunConfig{}.trace().link_stats());
  ReportContext ctx;
  ctx.algorithm = "2-Step";
  ctx.machine = p.machine.name;
  ctx.distribution = "R";
  ctx.sources = 4;
  ctx.message_bytes = 1024;
  ctx.p = p.machine.p;
  std::ostringstream os;
  write_run_report(os, ctx, p.result, p.machine.topology.get());
  p.json = os.str();
  return p;
}

TEST(RunReport, EmitsWellFormedJsonWithAllSections) {
  const Produced p = produce_report();
  EXPECT_TRUE(parses(p.json)) << p.json;
  for (const char* section :
       {"\"metrics\":", "\"faults\":", "\"network\":", "\"phases\":",
        "\"links\":", "\"time_us\":", "\"algorithm\":\"2-Step\""}) {
    EXPECT_NE(p.json.find(section), std::string::npos) << section;
  }
}

TEST(RunReport, PhaseTableIsNonEmptyAndConsistent) {
  const Produced p = produce_report();
  const auto& phases = p.result.outcome.phases;
  ASSERT_FALSE(phases.empty());

  // 2-Step annotates a gather and a bcast phase; both appear by name in
  // the report, and each phase's counters stay within the run totals.
  bool saw_gather = false;
  bool saw_bcast = false;
  std::uint64_t phase_sends = 0;
  std::uint64_t phase_recvs = 0;
  for (const auto& ph : phases) {
    saw_gather |= ph.name == "gather";
    saw_bcast |= ph.name == "bcast";
    EXPECT_GT(ph.entries, 0u) << ph.name;
    EXPECT_GE(ph.total_span_us, ph.max_span_us) << ph.name;
    phase_sends += ph.sends;
    phase_recvs += ph.recvs;
    EXPECT_NE(p.json.find("\"name\":\"" + ph.name + "\""),
              std::string::npos);
  }
  EXPECT_TRUE(saw_gather);
  EXPECT_TRUE(saw_bcast);
  // The phases partition the algorithm's communication: nothing counted
  // twice, and 2-Step sends only inside its two phases.
  EXPECT_EQ(phase_sends, p.result.outcome.metrics.total_sends);
  EXPECT_EQ(phase_recvs, p.result.outcome.metrics.total_recvs);
}

TEST(RunReport, ParallelSectionOmittedForSerialRuns) {
  const auto machine = machine::paragon(2, 2);
  const stop::Problem pb =
      stop::make_problem(machine, dist::Kind::kEqual, 2, 256);
  const stop::RunResult r = stop::run(*stop::make_br_lin(), pb);
  ReportContext ctx;
  ctx.algorithm = "Br_Lin";
  ctx.machine = machine.name;
  ctx.distribution = "E";
  ctx.sources = 2;
  ctx.message_bytes = 256;
  ctx.p = machine.p;
  std::ostringstream os;
  write_run_report(os, ctx, r, machine.topology.get());
  EXPECT_EQ(os.str().find("\"parallel\":"), std::string::npos);
}

TEST(RunReport, LinksSectionOmittedWithoutProbe) {
  const auto machine = machine::paragon(2, 2);
  const stop::Problem pb =
      stop::make_problem(machine, dist::Kind::kEqual, 2, 256);
  const stop::RunResult r = stop::run(*stop::make_br_lin(), pb);
  ReportContext ctx;
  ctx.algorithm = "Br_Lin";
  ctx.machine = machine.name;
  ctx.distribution = "E";
  ctx.sources = 2;
  ctx.message_bytes = 256;
  ctx.p = machine.p;
  std::ostringstream os;
  write_run_report(os, ctx, r, machine.topology.get());
  EXPECT_TRUE(parses(os.str()));
  EXPECT_EQ(os.str().find("\"links\":"), std::string::npos);
}

}  // namespace
}  // namespace spb::obs
