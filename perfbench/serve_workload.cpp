// serve_plan: an in-process serve::Server with nproc - 1 workers, fed by
// one generator thread.
//
// The traffic is the seeded ext_serve template pool on paragon8x8
// (hit-heavy) with rare never-seen requests that force planner runs and
// cache inserts (see inputs.h for the rate).  The fixed-rate phase submits
// open-loop through submit_line (a full queue is shed and counts as a
// failure) and times every request from its due time until its response
// line reaches the server's ostream (a StampBuf).  The saturation phase
// pushes batches through submit_line_wait.  Every response is checked,
// outside the timed sections, against a direct plan::Planner answer.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "inputs.h"
#include "machine/config.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stamp_buf.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace spb;  // NOLINT(google-build-using-namespace): bench main

/// Offered rate of the fixed-rate phase: well below the ~300k req/s the
/// service saturates at on a 4-core host.
constexpr double kFixedRate = 20000;
/// Requests per saturation batch.
constexpr std::size_t kSatBatch = 30000;
/// The ladder's offered rates, and its latency limit on p99.
constexpr double kLadder[] = {25000, 50000, 100000, 150000, 200000, 300000};
constexpr double kSloP99Us = 1000;
/// Never-seen requests the traced replay appends to time the planner.
constexpr std::uint64_t kReplayNovel = 16;
/// A run whose generator's p99 lateness exceeds this fell behind its
/// schedule and is invalid.
constexpr double kMaxLatenessUs = 1000;

/// The machine every request of the stream plans for.
constexpr const char* kMachine = "paragon8x8";

struct Answer {
  std::string signature;  // signature_hex
  std::string best;
  std::uint64_t key = 0;
};

machine::MachineConfig traced_machine(Tracer& tr, const Layers& layers) {
  Span span(tr, layers.machine_from_name);
  return machine::from_name(kMachine);
}

/// The output checks' reference: direct plan::Planner answers, built once
/// per run and never inside a timed section.
struct Oracle {
  Oracle(const ServeTraffic& traffic, Tracer& tr, const Layers& layers)
      : planner(traced_machine(tr, layers)) {
    for (const ServeSpec& t : traffic.templates())
      template_answers.push_back(direct(t));
  }

  Answer direct(const ServeSpec& spec) const {
    const machine::MachineConfig& mc = planner.machine();
    const std::vector<Rank> sources =
        dist::generate(dist::kind_from_name(spec.dist),
                       dist::Grid{mc.rows, mc.cols}, spec.sources,
                       spec.dist_seed);
    const plan::Plan p = planner.plan(sources, spec.len, spec.dist);
    return {serve::signature_hex(p.signature), p.best(), p.signature.key()};
  }

  Answer answer(const ServeSpec& spec) const {
    return spec.template_index >= 0
               ? template_answers[static_cast<std::size_t>(spec.template_index)]
               : direct(spec);
  }

  plan::Planner planner;
  std::vector<Answer> template_answers;
};

/// Requests with consecutive ids starting at first_id.
struct Batch {
  std::vector<ServeSpec> specs;
  std::vector<std::string> lines;
  std::uint64_t first_id = 0;
};

/// One server session and everything needed to drive and check it.
struct Session {
  Session(std::uint64_t seed, const Oracle& oracle)
      : traffic(seed), oracle(oracle), out(&buf) {}

  /// Constructs the server: the service's own set-up.
  void start(int workers) {
    serve::ServerOptions options;
    options.machine = kMachine;
    options.workers = workers;
    options.plan_hook = [this] {
      planner_calls.fetch_add(1, std::memory_order_relaxed);
    };
    server = std::make_unique<serve::Server>(options, out);
  }

  /// The next `n` requests of the stream, rendered with fresh ids.
  Batch take(std::size_t n, bool allow_novel = true) {
    Batch b;
    b.first_id = next_id;
    for (std::size_t i = 0; i < n; ++i)
      add(b, traffic.request(next_request++, allow_novel));
    return b;
  }

  void add(Batch& b, const ServeSpec& spec) {
    b.specs.push_back(spec);
    b.lines.push_back(ServeTraffic::render(spec, next_id++));
  }

  ServeTraffic traffic;
  const Oracle& oracle;
  std::unordered_set<std::uint64_t> signatures;  // of answered requests
  std::atomic<std::uint64_t> planner_calls{0};
  std::uint64_t next_request = 0;
  std::uint64_t next_id = 0;
  StampBuf buf;
  std::ostream out;
  std::unique_ptr<serve::Server> server;  // last: destroyed first
};

std::string field(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + key.size();
  const std::size_t end = line.find('"', start);
  return std::string(line.substr(start, end - start));
}

/// Checks the session's output since the last buf.reset(): one response
/// per line in `lines`, in submission order, each either shed or carrying
/// the direct planner's signature and best algorithm.  Returns the number
/// shed.
std::uint64_t check_output(Session& s, const Batch& b, Result& r) {
  const std::string& text = s.buf.text();
  std::uint64_t shed = 0;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < b.specs.size(); ++i) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      r.fail("response stream ended after " + std::to_string(i) + " of " +
             std::to_string(b.specs.size()) + " responses");
      return shed;
    }
    const std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    const std::string id_prefix =
        "{\"id\":" + std::to_string(b.first_id + i) + ",";
    if (line.substr(0, id_prefix.size()) != id_prefix) {
      r.fail("response " + std::to_string(i) + " out of submission order: " +
             std::string(line.substr(0, 40)));
      return shed;
    }
    if (line.find("\"error\":\"overloaded\"") != std::string_view::npos) {
      ++shed;
      continue;
    }
    const Answer expected = s.oracle.answer(b.specs[i]);
    if (field(line, "\"signature\":\"") != expected.signature ||
        field(line, "\"best\":\"") != expected.best) {
      r.fail("response " + std::to_string(i) + " differs from the direct "
             "planner (" + expected.best + "): " + std::string(line));
      return shed;
    }
    s.signatures.insert(expected.key);
  }
  if (pos != text.size()) r.fail("more responses than requests");
  return shed;
}

struct OpenLoop {
  std::vector<double> latency_us;   // due -> response line written
  std::vector<double> lateness_us;  // due -> submit_line called
  std::uint64_t shed = 0;
  bool backlog_growing = false;
};

/// Submits `lines` open-loop at `rate` req/s through the shedding path;
/// request i is due i / rate seconds after the start.
OpenLoop open_loop(Session& s, const Batch& b, double rate, Result& r) {
  const std::vector<std::string>& lines = b.lines;
  const std::size_t n = lines.size();
  s.buf.reset(n);
  std::vector<std::int64_t> due(n), submitted(n);
  const double gap_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 1000000;
  std::int64_t backlog_mid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
    std::int64_t now = now_ns();
    while (now < due[i]) now = now_ns();
    submitted[i] = now;
    s.server->submit_line(lines[i]);
    if (i == n / 2)
      backlog_mid = static_cast<std::int64_t>(i + 1) -
                    static_cast<std::int64_t>(s.buf.lines());
  }
  const std::int64_t backlog_end =
      static_cast<std::int64_t>(n) - static_cast<std::int64_t>(s.buf.lines());
  s.server->drain();
  OpenLoop out;
  out.backlog_growing =
      backlog_end >
      backlog_mid + std::max<std::int64_t>(64, static_cast<std::int64_t>(n / 100));
  out.shed = check_output(s, b, r);
  const auto& stamps = s.buf.stamps();
  if (stamps.size() != n) {
    r.fail("fixed-rate phase: " + std::to_string(stamps.size()) +
           " stamped responses for " + std::to_string(n) + " requests");
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.latency_us.push_back(static_cast<double>(stamps[i] - due[i]) / 1000.0);
    out.lateness_us.push_back(static_cast<double>(submitted[i] - due[i]) /
                              1000.0);
  }
  return out;
}

/// One saturation batch through the blocking path; returns req/s.
double saturate(Session& s, Result& r) {
  const Batch b = s.take(kSatBatch);
  const std::vector<std::string>& lines = b.lines;
  s.buf.reset(lines.size());
  const std::int64_t t0 = now_ns();
  for (const std::string& line : lines) s.server->submit_line_wait(line);
  s.server->drain();
  const double rate = static_cast<double>(lines.size()) * 1e9 /
                      static_cast<double>(now_ns() - t0);
  r.attempted += lines.size();
  const std::uint64_t shed = check_output(s, b, r);
  if (shed != 0) r.fail("the blocking path shed requests");
  return rate;
}

/// Saturation batches for `seconds` (at least ten); the 90th percentile
/// of the batch rates, since host noise only ever slows a batch down.
/// With `setups`, set-up samples follow each batch.
double saturation(Session& s, double seconds, Result& r,
                  SetupSamples* setups = nullptr) {
  std::vector<double> rates;
  const std::int64_t t0 = now_ns();
  do {
    rates.push_back(saturate(s, r));
    if (setups != nullptr)
      setups->sample(kSetupShare * kSatBatch / rates.back());
  } while (rates.size() < 10 ||
           static_cast<double>(now_ns() - t0) / 1e9 < seconds);
  std::sort(rates.begin(), rates.end());
  return percentile(rates, 90);
}

/// The 10th percentile of the p50s of consecutive 0.25 s segments of the
/// fixed-rate phase: the median latency with the host's noisy stretches
/// left out.
double quiet_p50(const std::vector<double>& latency_us) {
  const auto segment = static_cast<std::size_t>(kFixedRate / 4);
  std::vector<double> p50s;
  for (std::size_t at = 0; at + segment <= latency_us.size(); at += segment)
    p50s.push_back(summarize({latency_us.begin() + static_cast<std::ptrdiff_t>(at),
                              latency_us.begin() + static_cast<std::ptrdiff_t>(at + segment)})
                       .p50);
  std::sort(p50s.begin(), p50s.end());
  return percentile(p50s, 10);
}

/// A session whose server has planned every template once.  Only the
/// server's construction and the warm-up's submit and drain are timed
/// (`seconds`); the warm-up responses are checked afterwards.
std::unique_ptr<Session> make_session(const Args& args, int workers,
                                      const Oracle& oracle, Result& r,
                                      double& seconds) {
  auto s = std::make_unique<Session>(args.seed, oracle);
  Batch b;
  b.first_id = s->next_id;
  for (const ServeSpec& t : s->traffic.templates()) s->add(b, t);
  s->buf.reset(b.lines.size());
  const std::int64_t t0 = now_ns();
  s->start(workers);
  for (const std::string& line : b.lines) s->server->submit_line_wait(line);
  s->server->drain();
  seconds = static_cast<double>(now_ns() - t0) / 1e9;
  check_output(*s, b, r);
  return s;
}

/// The cache and counter invariants of a whole session.
void check_session(Session& s, const char* label, Result& r) {
  const plan::CacheStats cs = s.server->cache_stats();
  const serve::RequestCounters c = s.server->counters();
  r.check(cs.hits + cs.misses == c.plan,
          std::string(label) + ": hits + misses == plan requests (" +
              std::to_string(cs.hits + cs.misses) + " == " +
              std::to_string(c.plan) + ")");
  r.check(cs.misses == s.signatures.size(),
          std::string(label) + ": misses == distinct signatures (" +
              std::to_string(cs.misses) + " == " +
              std::to_string(s.signatures.size()) + ")");
  r.check(cs.misses == s.planner_calls.load(),
          std::string(label) + ": misses == planner invocations");
  r.check(c.errors == 0, std::string(label) + ": no error responses");
}

struct Replay {
  std::vector<double> service_ns;  // per request, spans off
  double traced_ns = 0;
  double untraced_ns = 0;
};

/// Serial replay of `lines` through the public functions the server calls
/// per plan request, with a span around each.  Every request runs twice
/// back to back, first with spans off, then on, each against its own
/// warmed cache, so both timings see the same hits and misses.
Replay replay(Session& s, const std::vector<std::string>& lines, Tracer& tr,
              const Layers& layers) {
  using Cache = plan::ShardedPlanCache;
  auto serve_one = [&](Cache& cache, std::string_view line,
                       std::uint64_t job) {
    Span root(tr, layers.job, job);
    serve::Request req;
    {
      Span span(tr, layers.serve_parse);
      if (!serve::parse_request(line, req).empty())
        throw std::runtime_error("replay: request does not parse");
    }
    const plan::Planner& planner = s.oracle.planner;
    const machine::MachineConfig& mc = planner.machine();
    std::vector<Rank> sources;
    {
      Span span(tr, layers.dist_generate);
      sources = dist::generate(dist::kind_from_name(req.dist),
                               dist::Grid{mc.rows, mc.cols}, req.sources,
                               req.seed);
    }
    plan::Signature sig;
    {
      Span span(tr, layers.plan_signature);
      sig = plan::make_signature(mc, sources, req.len, req.dist, req.faults);
    }
    std::shared_ptr<const plan::Plan> plan;
    {
      Span span(tr, layers.plan_cache_hit);
      bool miss = false;
      plan = cache.plan_shared(sig, [&] {
        miss = true;
        Span p(tr, layers.plan_planner);
        return planner.plan(sources, req.len, req.dist, req.faults);
      });
      if (miss) span.rename(layers.plan_cache_miss);
    }
    std::string text;
    Span span(tr, layers.serve_format);
    serve::write_plan_response(text, req.id, req, *plan);
  };
  const std::size_t capacity = serve::ServerOptions{}.cache_capacity;
  Cache untraced_cache(capacity), traced_cache(capacity);
  tr.set_enabled(false);
  std::uint64_t warm_id = 0;
  for (const ServeSpec& t : s.traffic.templates()) {
    const std::string line = ServeTraffic::render(t, warm_id++);
    serve_one(untraced_cache, line, 0);
    serve_one(traced_cache, line, 0);
  }
  Replay out;
  out.service_ns.resize(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto run_untraced = [&] {
      tr.set_enabled(false);
      const std::int64_t u0 = now_ns();
      serve_one(untraced_cache, lines[i], i);
      out.service_ns[i] = static_cast<double>(now_ns() - u0);
      out.untraced_ns += out.service_ns[i];
      tr.set_enabled(true);
    };
    // The twins alternate which runs first, so that neither timing always
    // inherits the other's warm caches.
    if (i % 2 == 0) run_untraced();
    const std::int64_t t0 = now_ns();
    serve_one(traced_cache, lines[i], i);
    out.traced_ns += static_cast<double>(now_ns() - t0);
    if (i % 2 == 1) run_untraced();
  }
  tr.set_enabled(false);
  return out;
}

void record_server_counters(Session& s, Result& r) {
  const plan::CacheStats cs = s.server->cache_stats();
  r.values["plan.hit_rate"] = cs.hit_rate();
  r.values["plan.misses"] = static_cast<double>(cs.misses);
  r.values["plan.coalesced"] = static_cast<double>(cs.coalesced);
  r.values["serve.queue_max_depth"] =
      static_cast<double>(s.server->queue_max_depth());
  r.values["serve.shed"] = static_cast<double>(s.server->counters().shed);
}

/// The highest ladder rate with p99 <= 1 ms, nothing shed, no growing
/// backlog and a generator that kept its schedule (0 when none).
double slo_rate(Session& s, double step_seconds, Result& r) {
  double best = 0;
  for (const double rate : kLadder) {
    const auto n = static_cast<std::size_t>(rate * step_seconds);
    Result step;  // ladder failures are measurements, not check failures
    const OpenLoop o = open_loop(s, s.take(n), rate, step);
    if (!step.correct) r.fail("ladder step output check failed");
    const Summary lat = summarize(o.latency_us);
    const Summary late = summarize(o.lateness_us);
    const bool ok = lat.p99 <= kSloP99Us && o.shed == 0 &&
                    !o.backlog_growing && late.p99 <= kMaxLatenessUs;
    std::fprintf(stderr,
                 "  ladder %.0f req/s: latency %s, shed %llu, backlog %s, "
                 "generator p99 late %.1f us -> %s\n",
                 rate, lat.to_string("us").c_str(),
                 static_cast<unsigned long long>(o.shed),
                 o.backlog_growing ? "growing" : "steady", late.p99,
                 ok ? "meets SLO" : "misses SLO");
    if (!ok) break;
    best = rate;
  }
  return best;
}

}  // namespace

Result run_serve_plan(const Args& args, Tracer& tr) {
  Result r;
  const Layers layers(tr);
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  const double fixed_s = args.seconds * 0.3;

  tr.set_enabled(args.trace);
  const Oracle oracle(ServeTraffic(args.seed), tr, layers);
  double setup_s = 0;
  std::unique_ptr<Session> s =
      make_session(args, workers, oracle, r, setup_s);

  if (!args.trace) {
    // The end-to-end metrics need no fixed-rate phase: its latencies are
    // per-layer metrics, so the untraced run saturates for all its time.
    SetupSamples setups([&] {
      double secs = 0;
      make_session(args, workers, oracle, r, secs);
      return secs;
    });
    setups.add(setup_s);
    setups.sample(kSetupFirstS);
    const double req_per_s = saturation(*s, args.seconds * 0.9, r, &setups);
    check_session(*s, "session", r);
    r.values["setup_s"] = setups.value();
    r.values["jobs_per_s"] = req_per_s;
    r.values["peak_rss_mb"] = peak_rss_mb();
    return r;
  }

  // Fixed offered rate, open loop, template traffic only: each planner run
  // stalls every later response for 0.3-6 ms, and with a handful of them
  // per phase the p99 would depend on where they fall.  Never-seen
  // requests ride in the saturation batches and the ladder.
  const Batch fixed_batch =
      s->take(static_cast<std::size_t>(kFixedRate * fixed_s), false);
  const std::vector<std::string>& fixed_lines = fixed_batch.lines;
  tr.set_enabled(false);
  // A phase whose generator fell behind its schedule (p99 lateness over
  // 1 ms: the host took the generator's core away) is invalid and runs
  // again, up to three times in all.  If the last attempt is invalid too,
  // its late requests count as failed.
  OpenLoop fixed;
  Summary late;
  for (int attempt = 1;; ++attempt) {
    fixed = open_loop(*s, fixed_batch, kFixedRate, r);
    r.attempted += fixed_lines.size();
    r.failed += fixed.shed;
    late = summarize(fixed.lateness_us);
    std::fprintf(stderr,
                 "  fixed %.0f req/s, %d workers: latency %s; generator "
                 "lateness %s; %llu shed\n",
                 kFixedRate, workers,
                 summarize(fixed.latency_us).to_string("us").c_str(),
                 late.to_string("us").c_str(),
                 static_cast<unsigned long long>(fixed.shed));
    if (late.p99 <= kMaxLatenessUs) break;
    std::fprintf(stderr, "  INVALID: the generator fell behind its schedule "
                         "(attempt %d of 3)\n",
                 attempt);
    if (attempt == 3) {
      for (const double l : fixed.lateness_us)
        r.failed += l > kMaxLatenessUs ? 1 : 0;
      break;
    }
  }
  r.check(!fixed.backlog_growing, "no growing backlog at the fixed rate");

  r.values["serve.gen_lateness_p99_us"] = late.p99;
  r.values["job.p50_us"] = quiet_p50(fixed.latency_us);
  r.values["job.p99_us"] =
      segmented(fixed.latency_us, static_cast<std::size_t>(kFixedRate / 2))
          .p99;
  // Serial replay of the fixed-phase requests: per-layer service time.
  // The fixed-rate phase has no never-seen request, so the replay appends
  // some (at stream indices no session reaches) to time the planner.
  std::vector<std::string> replay_lines = fixed_lines;
  for (std::uint64_t k = 0; k < kReplayNovel; ++k)
    replay_lines.push_back(ServeTraffic::render(
        s->traffic.never_seen((std::uint64_t{1} << 40) + k),
        replay_lines.size()));
  tr.set_enabled(true);
  tr.reserve(8 * replay_lines.size());
  tr.calibrate();
  const std::size_t mark = tr.mark();
  const Replay rep = replay(*s, replay_lines, tr, layers);
  const auto self = tr.self_times(mark);
  const double n = static_cast<double>(replay_lines.size());
  reconcile(r, rep.untraced_ns / n, rep.traced_ns / n,
            module_self_ns(self) / n,
            tr.span_cost_ns() * static_cast<double>(tr.mark() - mark) / n,
            /*gate=*/true);
  const auto mean_us = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.mean_self_us();
  };
  r.values["serve.parse_us"] = mean_us("serve.parse");
  r.values["dist.generate_us"] = mean_us("dist.generate");
  r.values["plan.signature_us"] = mean_us("plan.signature");
  r.values["plan.cache_hit_us"] = mean_us("plan.cache_hit");
  r.values["plan.planner_us"] = mean_us("plan.planner");
  r.values["serve.format_us"] = mean_us("serve.format");
  std::vector<double> wait_us;
  for (std::size_t i = 0; i < fixed.latency_us.size(); ++i)
    wait_us.push_back(fixed.latency_us[i] - rep.service_ns[i] / 1000.0);
  const Summary wait = summarize(wait_us);
  r.values["serve.queue_wait_p50_us"] = wait.p50;
  r.values["serve.queue_wait_p99_us"] = wait.p99;

  const double req_per_s = saturation(*s, args.seconds * 0.15, r);
  r.values["serve.slo_req_per_s"] = slo_rate(*s, args.seconds * 0.05, r);
  check_session(*s, "session", r);
  record_server_counters(*s, r);
  s.reset();
  double w1_setup = 0;
  std::unique_ptr<Session> w1 = make_session(args, 1, oracle, r, w1_setup);
  const double w1_rate = saturation(*w1, args.seconds * 0.15, r);
  check_session(*w1, "1-worker session", r);
  r.values["serve.req_per_s_w1"] = w1_rate;
  r.values["serve.scaling"] = req_per_s / w1_rate;
  std::fprintf(stderr, "  saturation: %.0f req/s at %d workers, %.0f at 1\n",
               req_per_s, workers, w1_rate);
  r.values["machine.from_name_us"] =
      tr.self_times().at("machine.from_name").mean_self_us();
  return r;
}

}  // namespace perfbench
