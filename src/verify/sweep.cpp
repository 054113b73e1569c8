#include "verify/sweep.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "analyze/record.h"
#include "common/check.h"
#include "common/rng.h"
#include "stop/problem.h"
#include "stop/verify.h"

namespace spb::verify {

namespace {

/// One source-count rule for both modes: s = min(p, --s or max(2, p/4)),
/// and a random trial draws s from [min(2, p), p].
stop::Problem combo_problem(const SweepCombo& combo, const SweepOptions& opt) {
  const int p = combo.machine.p;
  if (combo.trial < 0) {
    const int s = std::min(p, opt.s > 0 ? opt.s : std::max(2, p / 4));
    return stop::make_problem(combo.machine, combo.kind, s, opt.bytes,
                              opt.seed);
  }
  const std::uint64_t seed =
      opt.seed + static_cast<std::uint64_t>(combo.trial);
  Rng rng(seed);
  const int lo = std::min(2, p);
  const int s = lo + static_cast<int>(rng.next_below(
                         static_cast<std::uint64_t>(p - lo + 1)));
  return stop::make_problem(combo.machine, dist::Kind::kRandom, s, opt.bytes,
                            seed);
}

}  // namespace

// The formatting here is CLI output: spb_check prints these strings
// verbatim, and the determinism test diffs them between serial and
// parallel sweeps — keep any format change in sync with both.
ComboResult check_combo(const SweepCombo& combo, const SweepOptions& opt) {
  ComboResult result;
  std::ostringstream out;
  const std::string alg_name = combo.algorithm->name();
  const std::string dist_name = combo.trial >= 0
                                    ? "trial " + std::to_string(combo.trial)
                                    : dist::kind_name(combo.kind);
  const std::string where =
      combo.machine_key + "  " + alg_name + "  " + dist_name;
  const std::string trial_label =
      combo.trial >= 0 ? "[trial " + std::to_string(combo.trial) + "] " : "";

  try {
    const stop::Problem pb = combo_problem(combo, opt);
    // One certificate line (plus its reasons when verbose), counted.
    const auto add_certificate = [&](Certificate cert,
                                     const std::string& label) {
      cert.algorithm = alg_name;
      cert.machine = pb.machine.name;
      cert.message_bytes = pb.message_bytes;
      ++result.combos;
      if (!cert.certified) ++result.rejected;
      out << label << cert.to_string() << "\n";
      if (opt.verbose)
        for (const auto& r : cert.reasons) out << "    " << r << "\n";
      result.certificates.push_back(std::move(cert));
    };
    fault::FaultPlanPtr plan;
    if (opt.faults.any() && !opt.certify) {
      plan = std::make_shared<const fault::FaultPlan>(
          opt.faults, opt.fault_seed, combo.machine.topology->link_space(),
          combo.machine.p);
    }

    if (opt.mutations.empty() && opt.certify) {
      add_certificate(certify(*combo.algorithm, pb, opt.explore),
                      trial_label);
    } else if (opt.mutations.empty()) {
      const analyze::RecordedRun run =
          analyze::record_run(*combo.algorithm, pb, plan);
      std::vector<std::string> extra;
      if (!run.completed)
        extra.push_back("run did not complete: " + run.failure);
      ++result.combos;
      const analyze::AnalysisReport report =
          analyze::analyze_schedule(run.schedule, pb, opt.analysis);
      if (run.completed) {
        const stop::VerifyResult v =
            stop::verify_broadcast(pb, run.final_payloads);
        if (!v.ok) extra.push_back("final payloads wrong: " + v.error);
      }
      const bool bad = !report.ok() || !extra.empty();
      if (bad) ++result.rejected;
      const auto& q = report.quality;
      out << (bad ? "FAIL " : "ok   ") << where << "  depth "
          << q.message_rounds << "/" << q.round_lower_bound << "  steps "
          << q.max_rank_steps << "  conflicts " << q.max_link_conflicts
          << "\n";
      if (bad || opt.verbose) {
        for (const std::string& e : extra) out << "  " << e << "\n";
        out << report.to_string() << "\n";
      }
    } else {
      // Mutation self-test: record once, break the schedule, expect the
      // checker to reject every mutant.  Not every schedule has an
      // eligible op for every mutation (e.g. a fully wildcard program has
      // nothing to tag-mismatch); those are skipped, not failed.
      const analyze::RecordedRun run =
          analyze::record_run(*combo.algorithm, pb, plan);
      for (const analyze::Mutation m : opt.mutations) {
        const std::string name = analyze::mutation_name(m);
        analyze::MutationResult mut;
        try {
          mut = analyze::apply_mutation(run.schedule, m, opt.seed);
        } catch (const CheckError& e) {
          if (opt.certify) {
            out << trial_label << "[" << name << "] skipped " << alg_name
                << ": " << e.what() << "\n";
          } else {
            out << "SKIP    " << where << "  [" << name
                << "] no eligible op\n";
          }
          continue;
        }
        if (opt.certify) {
          add_certificate(
              certify_schedule(mut.schedule, pb.sources, opt.explore),
              trial_label + "[" + name + "] ");
          continue;
        }
        ++result.combos;
        const analyze::AnalysisReport report =
            analyze::analyze_schedule(mut.schedule, pb, opt.analysis);
        const bool bad = !report.ok();
        if (bad) ++result.rejected;
        out << (bad ? "FLAGGED " : "MISSED  ") << where << "  [" << name
            << "] " << mut.description << "\n";
        if (bad || opt.verbose) out << report.to_string() << "\n";
      }
    }
  } catch (const CheckError& e) {
    ++result.combos;
    ++result.rejected;
    out << "FAIL " << where << "  " << e.what() << "\n";
  }

  result.text = out.str();
  return result;
}

}  // namespace spb::verify
