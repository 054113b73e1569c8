// Unified bench CLI parser (bench/options.h): flag coverage, strict value
// parsing, extras, positionals, and the *_or() default folding every bench
// relies on.
#include "options.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "sweep_runner.h"

namespace spb::bench {
namespace {

std::string parse(std::vector<const char*> argv, Options& out,
                  const ParseSpec& spec = {}) {
  argv.insert(argv.begin(), "bench");
  return parse_options_into(static_cast<int>(argv.size()), argv.data(), spec,
                            out);
}

TEST(BenchOptions, DefaultsAreAllUnset) {
  Options o;
  ASSERT_EQ(parse({}, o), "");
  EXPECT_FALSE(o.machine.has_value());
  EXPECT_FALSE(o.dist.has_value());
  EXPECT_FALSE(o.sources.has_value());
  EXPECT_FALSE(o.len.has_value());
  EXPECT_FALSE(o.seed.has_value());
  EXPECT_TRUE(o.out.empty());
  EXPECT_FALSE(o.jobs_set);
  EXPECT_GE(o.jobs, 1);
}

TEST(BenchOptions, ParsesEveryUnifiedFlag) {
  Options o;
  ASSERT_EQ(parse({"--machine", "paragon8x8", "--dist", "R", "--sources",
                   "8", "--len", "1024", "--seed", "7", "--jobs", "2",
                   "--out", "x.csv"},
                  o),
            "");
  EXPECT_EQ(o.machine.value(), "paragon8x8");
  EXPECT_EQ(o.dist.value(), "R");
  EXPECT_EQ(o.sources.value(), 8);
  EXPECT_EQ(o.len.value(), 1024u);
  EXPECT_EQ(o.seed.value(), 7u);
  EXPECT_EQ(o.jobs, 2);
  EXPECT_TRUE(o.jobs_set);
  EXPECT_EQ(o.out, "x.csv");
}

TEST(BenchOptions, HelpShortCircuits) {
  Options o;
  EXPECT_EQ(parse({"--help"}, o), "help");
  EXPECT_EQ(parse({"-h"}, o), "help");
  EXPECT_EQ(parse({"--machine", "t3d64", "--help"}, o), "help");
}

TEST(BenchOptions, RejectsJunkValuesAndUnknownFlags) {
  Options o;
  EXPECT_NE(parse({"--sources", "eight"}, o), "");
  EXPECT_NE(parse({"--len", "4k"}, o), "");
  EXPECT_NE(parse({"--seed", "-1"}, o), "");
  EXPECT_NE(parse({"--jobs"}, o), "");  // missing value
  EXPECT_NE(parse({"--bogus"}, o), "");
  EXPECT_NE(parse({"stray"}, o), "");  // positional not allowed by default
}

TEST(BenchOptions, JobsZeroMeansAllCores) {
  Options o;
  ASSERT_EQ(parse({"--jobs", "0"}, o), "");
  EXPECT_EQ(o.jobs, SweepRunner::hardware_jobs());
  EXPECT_TRUE(o.jobs_set);
}

TEST(BenchOptions, ExtrasToggleAndValueFlags) {
  bool quick = false;
  std::string base;
  ParseSpec spec;
  spec.extras = {{.name = "--quick", .toggle = &quick, .help = "fast"},
                 {.name = "--base", .value = &base, .help = "baseline"}};
  Options o;
  ASSERT_EQ(parse({"--quick", "--base", "old.json", "--len", "64"}, o, spec),
            "");
  EXPECT_TRUE(quick);
  EXPECT_EQ(base, "old.json");
  EXPECT_EQ(o.len.value(), 64u);
}

TEST(BenchOptions, PositionalWhenAllowed) {
  ParseSpec spec;
  spec.allow_positional = true;
  spec.positional_help = "[dir]";
  Options o;
  ASSERT_EQ(parse({"results", "--jobs", "1"}, o, spec), "");
  EXPECT_EQ(o.positional, "results");
  // A second bare argument is still an error.
  EXPECT_NE(parse({"a", "b"}, o, spec), "");
}

TEST(BenchOptions, OrHelpersFoldDefaults) {
  Options o;
  ASSERT_EQ(parse({"--machine", "paragon4x4", "--dist", "C"}, o), "");
  const auto m = o.machine_or(machine::paragon(10, 10));
  EXPECT_EQ(m.p, 16);
  EXPECT_EQ(o.dist_or(dist::Kind::kEqual), dist::Kind::kColumn);
  EXPECT_EQ(o.sources_or(5), 5);
  EXPECT_EQ(o.len_or(4096), 4096u);
  EXPECT_EQ(o.seed_or(42), 42u);
  EXPECT_EQ(o.out_or("default.csv"), "default.csv");

  Options unset;
  const auto fb = unset.machine_or(machine::paragon(2, 2));
  EXPECT_EQ(fb.p, 4);
}

TEST(BenchOptions, BadMachineOrDistThrowOnFold) {
  Options o;
  ASSERT_EQ(parse({"--machine", "cray99", "--dist", "Z"}, o), "");
  EXPECT_THROW(o.machine_or(machine::paragon(2, 2)), CheckError);
  EXPECT_THROW(o.dist_or(dist::Kind::kEqual), CheckError);
}

TEST(BenchOptions, UsageTextListsEverything) {
  ParseSpec spec;
  spec.description = "Figure 3: algorithms vs source count";
  bool quick = false;
  spec.extras = {{.name = "--quick", .toggle = &quick, .help = "fast"}};
  const std::string u = usage_text("fig03", spec);
  for (const char* needle :
       {"usage: fig03", "Figure 3", "--machine", "--dist", "--sources",
        "--len", "--seed", "--jobs", "--out", "--quick", "--help",
        "Swept axes"}) {
    EXPECT_NE(u.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace spb::bench
