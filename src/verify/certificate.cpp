#include "verify/certificate.h"

#include <ostream>
#include <sstream>

#include "analyze/record.h"

namespace spb::verify {

namespace {

void append_reasons(const Certificate& cert, std::vector<std::string>& out) {
  if (!cert.recorded_completed) {
    out.push_back("recording run failed: " + cert.recorded_failure);
  }
  for (const auto& issue : cert.match.issues) {
    out.push_back("match: [" + match_issue_kind_name(issue.kind) + "] " +
                  issue.message);
  }
  if (!cert.deadlock.ok()) {
    out.push_back("wait-for graph: " + cert.deadlock.message);
  }
  for (const auto& issue : cert.structure.issues) {
    out.push_back("structure: [" + structure_issue_kind_name(issue.kind) +
                  "] " + issue.message);
  }
  if (cert.exploration.deadlock_found) {
    out.push_back("exploration: " + cert.exploration.deadlock_witness);
  } else if (!cert.exploration.deterministic) {
    out.push_back("exploration: not exhaustive (" + cert.exploration.note +
                  ")");
  }
}

}  // namespace

std::string Certificate::to_string() const {
  std::ostringstream os;
  os << verdict();
  if (!algorithm.empty()) os << " " << algorithm;
  if (!machine.empty()) os << " on " << machine;
  os << ": " << match.sends << " sends, " << match.recvs << " recvs, "
     << structure.pools.size() << " pool(s), " << exploration.states
     << " states (" << exploration.branch_points << " branch points), depth "
     << deadlock.op_chain_depth;
  if (structure.rebinding_assumed) os << ", dispatch assumption";
  for (const auto& reason : reasons) os << "\n  - " << reason;
  return os.str();
}

Certificate certify_schedule(const mp::Schedule& schedule,
                             std::span<const Rank> sources,
                             const ExploreOptions& options) {
  Certificate cert;
  cert.ranks = schedule.rank_count();
  cert.sources = static_cast<int>(sources.size());
  cert.match = check_match_graph(schedule);
  cert.deadlock = check_deadlock_free(schedule);
  cert.structure = extract_structure(schedule, sources);
  cert.exploration = explore(schedule, cert.structure, options);
  cert.certified = cert.recorded_completed && cert.match.ok() &&
                   cert.deadlock.ok() && cert.structure.ok() &&
                   cert.exploration.deterministic;
  append_reasons(cert, cert.reasons);
  return cert;
}

Certificate certify(const stop::Algorithm& algorithm,
                    const stop::Problem& problem,
                    const ExploreOptions& options) {
  const analyze::RecordedRun run = analyze::record_run(algorithm, problem);
  Certificate cert =
      certify_schedule(run.schedule, problem.sources, options);
  cert.algorithm = algorithm.name();
  cert.machine = problem.machine.name;
  cert.message_bytes = problem.message_bytes;
  if (!run.completed) {
    cert.recorded_completed = false;
    cert.recorded_failure = run.failure;
    cert.certified = false;
    cert.reasons.clear();
    append_reasons(cert, cert.reasons);
  }
  return cert;
}

void write_certificate(obs::JsonWriter& w, const Certificate& cert) {
  w.begin_object();
  w.field("verdict", cert.verdict());
  w.field("certified", cert.certified);
  if (!cert.algorithm.empty()) w.field("algorithm", cert.algorithm);
  if (!cert.machine.empty()) w.field("machine", cert.machine);
  w.field("ranks", cert.ranks);
  w.field("sources", cert.sources);
  if (cert.message_bytes > 0) {
    w.field("message_bytes", static_cast<std::uint64_t>(cert.message_bytes));
  }
  w.field("recorded_completed", cert.recorded_completed);
  if (!cert.recorded_failure.empty()) {
    w.field("recorded_failure", cert.recorded_failure);
  }

  w.key("match");
  w.begin_object();
  w.field("ok", cert.match.ok());
  w.field("sends", cert.match.sends);
  w.field("recvs", cert.match.recvs);
  w.field("matched_pairs", cert.match.matched_pairs);
  w.field("wildcard_recvs", cert.match.wildcard_recvs);
  w.key("issues");
  w.begin_array();
  for (const auto& issue : cert.match.issues) {
    w.begin_object();
    w.field("kind", match_issue_kind_name(issue.kind));
    w.field("op", issue.op);
    w.field("message", issue.message);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("wait_for");
  w.begin_object();
  w.field("acyclic", cert.deadlock.ok());
  w.field("critical_depth", cert.deadlock.op_chain_depth);
  if (!cert.deadlock.ok()) {
    w.key("cycle");
    w.begin_array();
    for (int id : cert.deadlock.cycle) w.value(id);
    w.end_array();
  }
  w.end_object();

  w.key("structure");
  w.begin_object();
  w.field("ok", cert.structure.ok());
  w.field("pools", static_cast<int>(cert.structure.pools.size()));
  w.field("dispatch_assumption", cert.structure.rebinding_assumed);
  w.key("issues");
  w.begin_array();
  for (const auto& issue : cert.structure.issues) {
    w.begin_object();
    w.field("kind", structure_issue_kind_name(issue.kind));
    w.field("op", issue.op);
    w.field("message", issue.message);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("exploration");
  w.begin_object();
  w.field("exhaustive", cert.exploration.exhaustive);
  w.field("deterministic", cert.exploration.deterministic);
  w.field("deadlock_found", cert.exploration.deadlock_found);
  w.field("states", cert.exploration.states);
  w.field("branch_points", cert.exploration.branch_points);
  w.field("terminals", cert.exploration.terminals);
  w.field("passive_ranks", cert.exploration.passive_ranks);
  if (!cert.exploration.note.empty()) {
    w.field("note", cert.exploration.note);
  }
  if (cert.exploration.deadlock_found) {
    w.field("witness", cert.exploration.deadlock_witness);
  }
  w.end_object();

  w.key("reasons");
  w.begin_array();
  for (const auto& reason : cert.reasons) w.value(reason);
  w.end_array();

  w.end_object();
}

void write_certificate_json(std::ostream& os, const Certificate& cert) {
  obs::JsonWriter w(os);
  write_certificate(w, cert);
  os << "\n";
}

}  // namespace spb::verify
