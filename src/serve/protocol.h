// The spb_serve JSONL wire protocol.
//
// Requests, one JSON object per line:
//   {"op":"plan","dist":"R","sources":8,"len":1024,"seed":1}
//   {"op":"execute","dist":"B","sources":16,"len":6144,"faults":"drop=0.1"}
//   {"op":"stats"}                      // barrier: flushes earlier requests
//   {"op":"stats","deterministic":true} // timing-dependent fields omitted
//
// Optional on every request: "id" (non-negative integer, echoed back;
// defaults to the server-assigned sequence number), "machine" (defaults to
// the server's machine).  Plan requests also accept "ranked":true to
// include the full ranked algorithm table in the response.
//
// Responses, one JSON object per line, in request order regardless of how
// many workers served them:
//   {"id":0,"ok":true,"op":"plan","signature":"…","best":"…",…}
//   {"id":1,"ok":true,"op":"execute","algorithm":"…","time_us":…,…}
//   {"id":2,"ok":false,"error":"…"}            // malformed / failed request
//   {"id":3,"ok":false,"error":"overloaded"}   // load-shed, never silent
//
// Plan and execute responses are pure functions of the request (the
// simulator is deterministic and plans are priced at bucket
// representatives), which is what makes serve output byte-identical across
// worker counts.  Parsing never throws: malformed input comes back as an
// error string so the session can answer and continue.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "common/types.h"
#include "plan/planner.h"
#include "stop/run.h"

namespace spb::serve {

enum class Op { kPlan, kExecute, kStats };

struct Request {
  Op op = Op::kPlan;
  bool has_id = false;
  std::uint64_t id = 0;  // valid when has_id
  std::string machine;   // "" = the server's default machine
  std::string dist = "R";
  int sources = 0;  // 0 = p/4 (at least 2), matching spb_plan
  Bytes len = 2048;
  std::uint64_t seed = 1;
  std::string faults;         // fault-spec text; refines the plan signature
  bool ranked = false;        // plan: include the full ranked table
  bool deterministic = false; // stats: omit timing-dependent sections
};

/// Parses one request line in one pass.  Returns "" and fills `out` on
/// success, or a one-line error message: malformed JSON with its byte
/// offset first, else the first bad member (unknown op, wrong field type
/// or range, unknown field), else a missing op.  After a bad member the
/// other members are still read, so `out.id` is the request's own id
/// whenever the JSON itself is well-formed.
std::string parse_request(std::string_view line, Request& out);

/// Canonical "%016x" rendering of a plan signature key.
std::string signature_hex(const plan::Signature& sig);

// Response writers append one newline-terminated JSON line to `out`.
// They build the line in place with std::to_chars and obs::JsonWriter's
// own escaping and fixed-point routines (no ostream) because the serve
// hot path emits one per request.
void write_plan_response(std::string& out, std::uint64_t id,
                         const Request& req, const plan::Plan& plan);
void write_execute_response(std::string& out, std::uint64_t id,
                            const Request& req, const std::string& algorithm,
                            const stop::RunResult& result);
void write_error_response(std::string& out, std::uint64_t id,
                          std::string_view error);
/// The explicit load-shed response ({"ok":false,"error":"overloaded"}).
void write_overloaded_response(std::string& out, std::uint64_t id);

}  // namespace spb::serve
