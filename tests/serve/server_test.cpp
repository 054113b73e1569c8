// serve::Server behavior: coalescing under simultaneous identical
// requests (exactly one planner invocation), bounded-queue load shedding
// with well-formed responses, in-order output, byte-identity across
// worker counts, the stats fence (also when spelled with escapes, which
// the unparsed-admission screen must catch), error recovery (also for
// malformed lines shed by a full queue), the output path under
// many threads taking turns as the writer, and the hot path's costs: warm
// cache hits that allocate nothing, idle workers that sleep, and a
// template memo that answers as the direct computation does.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "../mp/alloc_count.h"
#include "dist/distribution.h"
#include "dist/grid.h"
#include "machine/config.h"
#include "plan/planner.h"
#include "plan/signature.h"
#include "serve/json_value.h"
#include "serve/protocol.h"

namespace spb::serve {
namespace {

/// Well-formed JSON by the library reader.
bool parses(const std::string& text) {
  JsonValue v;
  return parse_json(text, v).ok;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(Server, CoalescesSimultaneousIdenticalRequests) {
  // K workers all start the same plan request at the same time (a gate in
  // job_hook holds them until all K are in flight): the planner must run
  // exactly once, and every response must be identical.
  constexpr int kConcurrent = 4;
  std::atomic<int> plans{0};
  std::atomic<int> in_jobs{0};
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = kConcurrent;
  options.job_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (in_jobs.fetch_add(1) + 1 == kConcurrent) {
      open = true;
      cv.notify_all();
    } else {
      cv.wait(lock, [&] { return open; });
    }
  };
  options.plan_hook = [&] { plans.fetch_add(1); };

  std::ostringstream out;
  {
    Server server(options, out);
    for (int i = 0; i < kConcurrent; ++i)
      server.submit_line(R"({"op":"plan","dist":"R","sources":4,"len":2048})");
    server.drain();

    EXPECT_EQ(plans.load(), 1);
    const plan::CacheStats stats = server.cache_stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kConcurrent) - 1);
    // A racer that reaches the cache after the owner publishes lands as a
    // plain LRU hit, so only an upper bound on coalesced is deterministic.
    EXPECT_LE(stats.coalesced, static_cast<std::uint64_t>(kConcurrent) - 1);
  }
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kConcurrent));
  // Identical requests, identical responses — only the echoed id differs.
  const std::string body0 = lines[0].substr(lines[0].find(','));
  for (const std::string& line : lines) {
    EXPECT_EQ(line.substr(line.find(',')), body0);
    EXPECT_TRUE(parses(line));
  }
}

TEST(Server, BoundedQueueShedsWithWellFormedResponses) {
  // One worker, held inside its first job; queue bounded at 2.  The two
  // lines behind the running job queue up, everything further is answered
  // "overloaded" immediately — and every single submission gets exactly
  // one response.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};

  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 1;
  options.max_queue = 2;
  options.job_hook = [&] {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };

  std::ostringstream out;
  constexpr int kTotal = 6;
  {
    Server server(options, out);
    server.submit_line(R"({"op":"plan","dist":"R","sources":4,"len":2048})");
    while (started.load() < 1) std::this_thread::yield();  // job 0 running
    for (int i = 1; i < kTotal; ++i)
      server.submit_line(R"({"op":"plan","dist":"R","sources":4,"len":2048})");

    // Jobs 1 and 2 fit the queue; 3..5 were shed synchronously (the
    // counters say so only after the ordered flush, checked post-drain —
    // a shed response for seq N cannot flush while seq 0 is still open).
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    server.drain();
    EXPECT_EQ(server.counters().shed, 3u);
    EXPECT_EQ(server.counters().plan, 3u);
    EXPECT_EQ(server.counters().errors, 0u);
    EXPECT_EQ(server.queue_max_depth(), 2u);
  }

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kTotal));
  int shed = 0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(parses(line));
    if (line.find("\"error\":\"overloaded\"") != std::string::npos) {
      ++shed;
      EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
    }
  }
  EXPECT_EQ(shed, 3);
}

TEST(Server, ShedCannotHappenUnderBlockingSubmission) {
  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 2;
  options.max_queue = 2;  // tiny on purpose

  std::ostringstream out;
  {
    Server server(options, out);
    for (int i = 0; i < 64; ++i)
      server.submit_line_wait(
          R"({"op":"plan","dist":"R","sources":4,"len":2048})");
    server.drain();
    EXPECT_EQ(server.counters().shed, 0u);
    EXPECT_EQ(server.counters().plan, 64u);
  }
  EXPECT_EQ(lines_of(out.str()).size(), 64u);
}

TEST(Server, OutputIsInSubmissionOrder) {
  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 4;

  std::ostringstream out;
  {
    Server server(options, out);
    // Distinct ids in submission order; varied work so completion order
    // scrambles with 4 workers.
    for (int i = 0; i < 40; ++i) {
      std::ostringstream line;
      line << "{\"op\":\"plan\",\"id\":" << 1000 + i
           << ",\"dist\":\"" << (i % 2 == 0 ? "R" : "B")
           << "\",\"sources\":" << (i % 3 == 0 ? 4 : 8)
           << ",\"len\":" << 512 * (1 + i % 5) << "}";
      server.submit_line_wait(line.str());
    }
    server.drain();
  }
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    const std::string want = "{\"id\":" + std::to_string(1000 + i) + ",";
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].substr(0, want.size()), want)
        << "response " << i << " out of order";
  }
}

std::string serve_trace(int workers, const std::vector<std::string>& trace) {
  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = workers;
  std::ostringstream out;
  {
    Server server(options, out);
    for (const std::string& line : trace) server.submit_line_wait(line);
    server.drain();
  }
  return out.str();
}

TEST(Server, ByteIdenticalAcrossWorkerCounts) {
  std::vector<std::string> trace;
  for (int i = 0; i < 30; ++i) {
    std::ostringstream line;
    line << "{\"op\":\"plan\",\"dist\":\"" << (i % 2 == 0 ? "R" : "Sq")
         << "\",\"sources\":" << (i % 4 == 0 ? 4 : 6)
         << ",\"len\":" << 1024 * (1 + i % 3) << "}";
    trace.push_back(line.str());
  }
  trace.push_back(R"({"op":"execute","dist":"R","sources":4,"len":1024})");
  trace.push_back(R"({"op":"stats","deterministic":true})");
  trace.push_back("not json at all");
  trace.push_back(R"({"op":"plan","dist":"R","sources":4,"len":1024,"ranked":true})");

  const std::string w1 = serve_trace(1, trace);
  const std::string w2 = serve_trace(2, trace);
  const std::string w8 = serve_trace(8, trace);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
}

TEST(Server, StatsFenceCoversExactlyEarlierRequests) {
  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 4;

  std::ostringstream out;
  {
    Server server(options, out);
    for (int i = 0; i < 10; ++i)
      server.submit_line_wait(
          R"({"op":"plan","dist":"R","sources":4,"len":2048})");
    server.submit_line_wait(R"({"op":"stats","deterministic":true})");
    for (int i = 0; i < 7; ++i)
      server.submit_line_wait(
          R"({"op":"plan","dist":"B","sources":8,"len":4096})");
    server.drain();
  }
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 18u);
  const std::string& stats = lines[10];
  EXPECT_NE(stats.find("\"op\":\"stats\""), std::string::npos);
  // The fence makes the snapshot exact: 10 plan responses before it, none
  // of the 7 after it.
  EXPECT_NE(stats.find("\"plan\":10"), std::string::npos) << stats;
  // 10 identical requests -> 1 miss, 9 hits, whatever the worker count.
  EXPECT_NE(stats.find("\"hits\":9"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"misses\":1"), std::string::npos) << stats;
}

TEST(Server, MalformedLinesAnswerAndSessionContinues) {
  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 2;

  std::ostringstream out;
  {
    Server server(options, out);
    server.submit_line("{\"op\":\"plan\",\"len\":0}");        // bad value
    server.submit_line("{\"op\":\"warp\"}");                   // unknown op
    server.submit_line("{\"len\":1024}");                      // missing op
    server.submit_line("{\"op\":\"plan\",\"bogus\":1}");       // unknown field
    server.submit_line("\x01garbage");                          // not JSON
    server.submit_line(
        R"({"op":"plan","machine":"paragon9000","len":1024})");  // bad machine
    // More nodes than an int holds: named, not an overflow's symptom.
    server.submit_line(
        R"({"op":"plan","machine":"paragon46341x46341","len":1024})");
    server.submit_line(R"({"op":"plan","dist":"R","sources":4,"len":2048})");
    server.drain();
    EXPECT_EQ(server.counters().errors, 7u);
    EXPECT_EQ(server.counters().plan, 1u);
  }
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 8u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(parses(lines[i]))
        << lines[i];
    EXPECT_NE(lines[i].find("\"ok\":false"), std::string::npos) << lines[i];
  }
  EXPECT_NE(lines[6].find("'paragon46341x46341' is too large"),
            std::string::npos)
      << lines[6];
  EXPECT_NE(lines[7].find("\"ok\":true"), std::string::npos);
}

TEST(Server, ExecuteRunsThePredictedBest) {
  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 1;

  std::ostringstream out;
  {
    Server server(options, out);
    server.submit_line_wait(
        R"({"op":"execute","dist":"R","sources":4,"len":1024})");
    server.drain();
    EXPECT_EQ(server.counters().execute, 1u);
    // An execute request plans first (the signature lands in the cache).
    EXPECT_EQ(server.cache_stats().misses, 1u);
  }
  const std::string line = lines_of(out.str()).at(0);
  EXPECT_TRUE(parses(line));
  EXPECT_NE(line.find("\"op\":\"execute\""), std::string::npos);
  EXPECT_NE(line.find("\"algorithm\":"), std::string::npos);
  EXPECT_NE(line.find("\"time_us\":"), std::string::npos);
  EXPECT_NE(line.find("\"total_sends\":"), std::string::npos);
}

TEST(Server, ReportSectionReconcilesWithAccessors) {
  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 2;

  std::ostringstream out;
  Server server(options, out);
  for (int i = 0; i < 12; ++i)
    server.submit_line_wait(
        R"({"op":"plan","dist":"R","sources":4,"len":2048})");
  server.submit_line("definitely not json");
  server.drain();

  const obs::ServeSection section = server.report_section();
  EXPECT_EQ(section.requests_plan, 12u);
  EXPECT_EQ(section.requests_error, 1u);
  EXPECT_EQ(section.workers, 2);
  ASSERT_EQ(section.cache_shards.size(), server.cache().shard_count());
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const obs::ServeSection::CacheShard& s : section.cache_shards) {
    hits += s.hits;
    misses += s.misses;
  }
  EXPECT_EQ(hits, server.cache_stats().hits);
  EXPECT_EQ(misses, server.cache_stats().misses);
  EXPECT_EQ(section.latency_count, server.latency().total);
}

/// The "requests" section and the leading "cache" fields that a
/// deterministic stats response must carry when it fences exactly the
/// responses in `before`.
std::string fence_snapshot(const std::vector<std::string>& before) {
  std::uint64_t plan = 0;
  std::uint64_t stats = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::set<std::string> signatures;
  for (const std::string& line : before) {
    if (line.find("\"op\":\"stats\"") != std::string::npos) {
      ++stats;
    } else if (line.find("\"error\":\"overloaded\"") != std::string::npos) {
      ++shed;
    } else if (line.find("\"ok\":false") != std::string::npos) {
      ++errors;
    } else {
      ++plan;
      signatures.insert(line.substr(line.find("\"signature\":"), 30));
    }
  }
  const std::uint64_t misses = signatures.size();
  std::ostringstream os;
  os << "\"requests\":{\"plan\":" << plan << ",\"execute\":0,\"stats\":"
     << stats << ",\"errors\":" << errors << ",\"shed\":" << shed
     << "},\"cache\":{\"shards\":8,\"capacity\":4096,\"size\":" << misses
     << ",\"hits\":" << plan - misses << ",\"misses\":" << misses
     << ",\"evictions\":0,";
  return os.str();
}

/// Sessions of plan bursts on four workers, with a stats fence after each
/// burst; `fence` renders the fence with the given id.  Most lines pass
/// the unparsed-admission screen, so workers parse them and answer the
/// malformed ones, while the submitter answers the shed lines (parsing
/// first, so a malformed one gets its error) and the fences it parsed.
/// Workers and the submitter therefore all take turns as the one writer.
/// Sessions alternate a 2-job queue (the shedding path sheds) and a
/// 64-job one (workers take runs of jobs up to a fence).  Every session
/// must finish within a minute and come out in submission order, and each
/// fence must count exactly the responses before it.  Adds the number of
/// lines shed to `shed`.
void fenced_bursts(int sessions,
                   const std::function<std::string(std::uint64_t)>& fence,
                   std::uint64_t& shed) {
  constexpr int kBlocks = 3;
  constexpr int kBurst = 16;
  for (int session = 0; session < sessions; ++session) {
    ServerOptions options;
    options.machine = "paragon4x4";
    options.workers = 4;
    options.max_queue = session % 2 == 0 ? 2 : 64;

    std::ostringstream out;
    std::vector<std::uint64_t> fences;
    std::uint64_t submitted = 0;
    const auto run = [&] {
      Server server(options, out);
      for (int block = 0; block < kBlocks; ++block) {
        for (int i = 0; i < kBurst; ++i) {
          // Every request's id is its sequence number.
          const std::string id = std::to_string(submitted++);
          const std::string plan =
              R"({"op":"plan","id":)" + id + R"(,"dist":")" +
              (i % 8 < 4 ? "R" : "B") + R"(","sources":4,"len":)" +
              std::to_string(1024 << (i % 3)) + "}";
          switch (i % 4) {
            case 0:
            case 1:
              server.submit_line(plan);  // may be shed
              break;
            case 2:
              server.submit_line(i % 8 == 2 ? std::string("not json")
                                            : R"({"op":"warp","id":)" + id +
                                                  "}");
              break;
            default:
              server.submit_line_wait(plan);
          }
        }
        fences.push_back(submitted);
        server.submit_line_wait(fence(submitted++));
      }
      server.drain();
      return server.counters().shed;
    };
    std::future<std::uint64_t> done = std::async(std::launch::async, run);
    if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
      std::fprintf(stderr, "session %d did not finish\n", session);
      std::abort();  // the hung server would hang this binary too
    }
    shed += done.get();

    const std::vector<std::string> lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), submitted) << "session " << session;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string want = "{\"id\":" + std::to_string(i) + ",";
      ASSERT_EQ(lines[i].substr(0, want.size()), want)
          << "session " << session << ": response " << i << " out of order";
    }
    for (const std::uint64_t at : fences) {
      const std::string want = fence_snapshot(
          {lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(at)});
      ASSERT_NE(lines[at].find(want), std::string::npos)
          << "session " << session << ": fence " << at << " is\n"
          << lines[at] << "\nwant\n" << want;
    }
  }
}

TEST(Server, ConcurrentWritersKeepOrderAndExactFences) {
  std::uint64_t shed = 0;
  fenced_bursts(
      200,
      [](std::uint64_t id) {
        return R"({"op":"stats","id":)" + std::to_string(id) +
               R"(,"deterministic":true})";
      },
      shed);
  // The shedding path did shed, so the submitter wrote shed responses.
  EXPECT_GT(shed, 0u);
}

TEST(Server, EscapedStatsIsStillAFence) {
  // The screen admits a line unparsed only when it holds neither "stats"
  // nor a backslash, so a fence whose key and op are spelled with escapes
  // is parsed on submission and fences exactly as a plain one does.
  std::uint64_t shed = 0;
  fenced_bursts(
      200,
      [](std::uint64_t id) {
        return R"({"\u006fp":"st\u0061ts","id":)" + std::to_string(id) +
               R"(,"deterministic":true})";
      },
      shed);
}

TEST(Server, FullQueueAnswersMalformedLinesWithTheirParseError) {
  // Two workers held inside their first jobs and two jobs queued behind
  // them fill a 2-job queue.  A line that passed the screen unparsed is
  // parsed when it is shed: a malformed one gets its parse error, with
  // its own id when the JSON is well formed, never "overloaded"; a valid
  // one gets "overloaded" with its own id.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};

  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 2;
  options.max_queue = 2;
  options.job_hook = [&] {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };

  const std::string plan = R"({"op":"plan","dist":"R","sources":4,"len":2048})";
  const std::vector<std::string> shed_lines = {
      "not json", R"({"op":"warp","id":77})",
      R"({"op":"plan","id":88,"dist":"R","sources":4,"len":2048})"};
  std::ostringstream out;
  {
    Server server(options, out);
    server.submit_line(plan);
    server.submit_line(plan);
    while (started.load() < 2) std::this_thread::yield();  // both held
    server.submit_line(plan);
    server.submit_line(plan);  // the queue is full
    for (const std::string& line : shed_lines) server.submit_line(line);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    server.drain();
    EXPECT_EQ(server.counters().plan, 4u);
    EXPECT_EQ(server.counters().errors, 2u);
    EXPECT_EQ(server.counters().shed, 1u);
    EXPECT_EQ(server.queue_max_depth(), 2u);
  }

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 7u);
  Request req;
  std::string want;
  write_error_response(want, 4, parse_request(shed_lines[0], req));
  EXPECT_EQ(lines[4] + "\n", want);
  want.clear();
  write_error_response(want, 77, parse_request(shed_lines[1], req));
  EXPECT_EQ(lines[5] + "\n", want);
  EXPECT_EQ(lines[6], R"({"id":88,"ok":false,"error":"overloaded"})");
}

/// A response stream that drops everything written to it.
class DiscardBuf : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

TEST(Server, WarmCacheHitsDoNotAllocate) {
  // Template traffic on a warm server: each request hits its worker's
  // template memo and the plan cache, travels in reused job and output
  // slots and is formatted into a reused buffer.  The first pass warms
  // every worker's memo and grows the rings.  A worker descheduled while
  // it holds the oldest response makes the responses behind it wait in
  // the output ring, and a backlog longer than any before it allocates
  // strings for its excess: that is the host's scheduling, not the hit
  // path, so the best of up to three measured passes is bounded.
  constexpr int kRequests = 10000;
  const char* const dists[] = {"R", "C", "E", "Dr", "B", "Cr", "Sq", "Rand"};
  std::vector<std::string> lines;
  lines.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const int t = i % 24;  // 24 templates
    lines.push_back(R"({"op":"plan","id":)" + std::to_string(i) +
                    R"(,"dist":")" + dists[t % 8] + R"(","sources":)" +
                    std::to_string(2 + 2 * (t / 8)) + R"(,"len":)" +
                    std::to_string(1024 + i % 512) + R"(,"seed":3})");
  }

  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 3;
  DiscardBuf discard;
  std::ostream out(&discard);
  Server server(options, out);
  for (const std::string& line : lines) server.submit_line_wait(line);
  server.drain();

  std::size_t allocations = std::numeric_limits<std::size_t>::max();
  int measured = 0;
  while (measured < 3 && allocations >= kRequests / 10) {
    const std::size_t before = test::allocations_in_process();
    for (const std::string& line : lines) server.submit_line_wait(line);
    server.drain();
    allocations =
        std::min(allocations, test::allocations_in_process() - before);
    ++measured;
  }

  EXPECT_EQ(server.counters().plan,
            static_cast<std::uint64_t>(1 + measured) * kRequests);
  EXPECT_EQ(server.cache_stats().misses, 24u);
  EXPECT_LT(static_cast<double>(allocations) / kRequests, 0.1)
      << allocations << " allocations for " << kRequests << " requests";
}

TEST(Server, IdleWorkersPark) {
  // Idle workers poll the queue only briefly before they sleep: over half
  // a second without requests, a 4-worker server uses under 100 ms of
  // CPU in all.
  ServerOptions options;
  options.machine = "paragon4x4";
  options.workers = 4;
  std::ostringstream out;
  Server server(options, out);
  for (int i = 0; i < 16; ++i)
    server.submit_line_wait(
        R"({"op":"plan","dist":"R","sources":4,"len":2048})");
  server.drain();

  const std::clock_t cpu0 = std::clock();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double cpu_ms = 1000.0 * static_cast<double>(std::clock() - cpu0) /
                        CLOCKS_PER_SEC;
  EXPECT_LT(cpu_ms, 100.0);
}

TEST(Server, TemplateMemoMatchesDirectSignatures) {
  // More distinct templates than one worker's memo holds, so its sets
  // overflow and entries are replaced while their keys come back; the
  // default machine both named and unnamed, explicit and default source
  // counts, Rand seeds, fault contexts (one too long to memoize), and an
  // unknown dist before and after its valid twin.  Every response must
  // equal a direct generate + make_signature + planner answer, and an
  // error must stay an error.
  const machine::MachineConfig mc = machine::from_name("paragon4x4");
  const plan::Planner planner(mc);
  struct Spec {
    std::string machine;
    std::string dist;
    int sources = 0;
    std::uint64_t seed = 1;
    std::string faults;
  };
  std::vector<Spec> specs;
  // Seeds move only Rand's sources, so these keys share a few signatures
  // and the planner runs rarely.
  for (std::uint64_t seed = 1; seed <= 25; ++seed)
    for (const char* dist : {"R", "C", "B", "Sq"})
      for (const char* name : {"", "paragon4x4"})
        for (const int sources : {0, 4, 6})
          specs.push_back({name, dist, sources, seed, ""});
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    specs.push_back({"", "Rand", 5, seed, ""});
  for (const char* faults :
       {"drop=0.1", "7:drop=0.1",
        "42:drop=0.1,links=0.25x4,lat=2,straggle=1x3,window=500,dup=0.2"})
    specs.push_back({"paragon4x4", "E", 4, 1, faults});
  ASSERT_GT(specs.size(), 2 * Server::kTemplateMemoEntries);

  std::vector<std::string> lines;
  std::vector<std::string> want;  // signature and best, or an error
  std::map<std::uint64_t, std::string> best_of;  // by signature key
  const auto add = [&](const Spec& spec, std::uint64_t len) {
    const std::string id = std::to_string(lines.size());
    std::string line = R"({"op":"plan","id":)" + id;
    if (!spec.machine.empty()) line += R"(,"machine":")" + spec.machine + '"';
    line += R"(,"dist":")" + spec.dist + '"';
    if (spec.sources != 0)
      line += R"(,"sources":)" + std::to_string(spec.sources);
    line += R"(,"len":)" + std::to_string(len) + R"(,"seed":)" +
            std::to_string(spec.seed);
    if (!spec.faults.empty()) line += R"(,"faults":")" + spec.faults + '"';
    lines.push_back(line + "}");
    if (spec.dist == "r") {
      want.push_back("error");
      return;
    }
    const int s = spec.sources != 0 ? spec.sources : std::max(2, mc.p / 4);
    const std::vector<Rank> sources =
        dist::generate(dist::kind_from_name(spec.dist),
                       dist::Grid{mc.rows, mc.cols}, s, spec.seed);
    const plan::Signature sig =
        plan::make_signature(mc, sources, len, spec.dist, spec.faults);
    auto it = best_of.find(sig.key());
    if (it == best_of.end())
      it = best_of
               .emplace(sig.key(),
                        planner.plan(sources, len, spec.dist, spec.faults)
                            .best())
               .first;
    want.push_back(R"("signature":")" + signature_hex(sig) +
                   R"(","best":")" + it->second + '"');
  };
  // The unknown dist "r", then its twin "R", then "r" again.
  const Spec twin{"", "R", 4, 1, ""};
  Spec unknown = twin;
  unknown.dist = "r";
  add(unknown, 2048);
  add(twin, 2048);
  add(unknown, 2048);
  // Every key twice, the second pass in reverse with other lengths.
  for (const Spec& spec : specs) add(spec, 2048);
  for (auto it = specs.rbegin(); it != specs.rend(); ++it) add(*it, 5000);
  add(unknown, 2048);

  for (const int workers : {1, 3}) {
    ServerOptions options;
    options.machine = "paragon4x4";
    options.workers = workers;
    std::ostringstream out;
    {
      Server server(options, out);
      for (const std::string& line : lines) server.submit_line_wait(line);
      server.drain();
    }
    const std::vector<std::string> got = lines_of(out.str());
    ASSERT_EQ(got.size(), lines.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (want[i] == "error") {
        EXPECT_NE(got[i].find(R"("ok":false)"), std::string::npos) << got[i];
        EXPECT_NE(got[i].find("unknown distribution name 'r'"),
                  std::string::npos)
            << got[i];
      } else {
        EXPECT_NE(got[i].find(want[i]), std::string::npos)
            << "workers " << workers << ", request " << lines[i] << "\ngot "
            << got[i] << "\nwant " << want[i];
      }
    }
  }
}

}  // namespace
}  // namespace spb::serve
