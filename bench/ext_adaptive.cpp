// Extension: the adaptive repositioner (the paper's future-work hint —
// "our algorithms do not analyze the input distribution").  Across every
// distribution family on the paper's 16x16 repositioning setup, the
// adaptive algorithm must track min(Br_xy_source, Repos_xy_source) —
// repositioning when the input is hard, skipping when it is near-ideal.
#include <memory>

#include "stop/adaptive_repos.h"
#include "util.h"

int main(int argc, char** argv) {
  using namespace spb;
  const bench::Options opt = bench::parse_options(
      argc, argv,
      {.description = "Extension: adaptive repositioning across all "
                      "distributions (16x16 Paragon, L=6K)"});
  bench::Checker check("Extension — adaptive repositioning, 16x16 Paragon");

  const auto machine = opt.machine_or(machine::paragon(16, 16));
  const auto base = stop::make_br_xy_source();
  const auto repos = stop::make_repositioning(base);
  // Concrete type: the table reports the decision the algorithm actually
  // made (should_reposition), not one inferred from timings.
  const auto adaptive =
      std::make_shared<const stop::AdaptiveRepositioning>(base);

  TextTable t;
  t.row()
      .cell("dist")
      .cell("s")
      .cell("base [ms]")
      .cell("repos [ms]")
      .cell("adaptive [ms]")
      .cell("chose");
  double worst_regret = 0;
  int decisions_matching_best = 0;
  int cases = 0;
  bool decisions_consistent = true;
  for (const dist::Kind kind : dist::all_kinds()) {
    for (const int s : {48, 96}) {
      const stop::Problem pb =
          stop::make_problem(machine, kind, s, opt.len_or(6144));
      const double b = stop::run_ms(*base, pb);
      const double r = stop::run_ms(*repos, pb);
      const double a = stop::run_ms(*adaptive, pb);
      // The actual decision, straight from the algorithm.  The old
      // inference `a == r && r != b` broke down exactly when the branches
      // tied: near-ideal inputs make base and repos times equal, and any
      // exact-float coincidence misreported the choice.
      const bool chose_repos =
          adaptive->should_reposition(stop::Frame::whole(pb));
      // The adaptive run must reproduce its chosen branch's time.
      decisions_consistent =
          decisions_consistent && a == (chose_repos ? r : b);
      const double best = std::min(b, r);
      worst_regret = std::max(worst_regret, a / best);
      ++cases;
      if (a <= best * 1.02) ++decisions_matching_best;
      t.row()
          .cell(dist::kind_name(kind))
          .num(static_cast<std::int64_t>(s))
          .num(b, 2)
          .num(r, 2)
          .num(a, 2)
          .cell(chose_repos ? "reposition" : "direct");
    }
  }
  std::printf("%s\n", t.render().c_str());

  check.expect(worst_regret < 1.12,
               "adaptive never loses more than 12% to the better choice "
               "(worst regret " + fixed(worst_regret, 3) + ")");
  check.expect(decisions_matching_best * 4 >= cases * 3,
               "the decision matches the better choice in >= 75% of cases "
               "(" + std::to_string(decisions_matching_best) + "/" +
                   std::to_string(cases) + ")");
  check.expect(decisions_consistent,
               "the reported decision reproduces the chosen branch's time");
  return check.exit_code();
}
