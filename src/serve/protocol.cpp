#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "obs/json.h"
#include "serve/json_value.h"

namespace spb::serve {

namespace {

/// A number token as a non-negative integer no larger than `max`.  Plain
/// digit strings convert exactly; the other integral forms (1e3, 2.0) go
/// through a double.
bool to_u64(std::string_view token, std::uint64_t max, std::uint64_t& out) {
  const char* const last = token.data() + token.size();
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(token.data(), last, v);
  if (end != last) {
    const double d = std::strtod(std::string(token).c_str(), nullptr);
    // 2^64 is the first double past every uint64_t.
    if (!(d >= 0) || std::floor(d) != d || d >= 18446744073709551616.0)
      return false;
    v = static_cast<std::uint64_t>(d);
  } else if (ec != std::errc{}) {
    return false;
  }
  if (v > max) return false;
  out = v;
  return true;
}

/// Reads a request object's members into a Request in one pass.  A member
/// of the wrong type or range is consumed like any other value and its
/// complaint kept (the first one only), so the members after it — "id" in
/// particular — are still read.
struct RequestFields {
  /// How reading one member went: a syntax error ends the document, a bad
  /// value only the request.
  enum class Read { kOk, kBad, kSyntax };

  RequestFields(JsonReader& r, Request& o) : reader(r), out(o) {}

  JsonReader& reader;
  Request& out;
  std::string error;  // the first bad member
  bool saw_op = false;

  void bad(std::string message) {
    if (error.empty()) error = std::move(message);
  }

  /// Keeps `message` for a bad value; false on a syntax error.
  bool checked(Read r, const char* message) {
    if (r == Read::kBad) bad(message);
    return r != Read::kSyntax;
  }

  /// Consumes a value of the wrong type.
  Read skip() { return reader.value(nullptr) ? Read::kBad : Read::kSyntax; }

  Read text(std::string& s) {
    if (reader.peek() != '"') return skip();
    s.clear();
    return reader.string(s) ? Read::kOk : Read::kSyntax;
  }

  Read flag(bool& b) {
    if (reader.peek() != 't' && reader.peek() != 'f') return skip();
    return reader.boolean(b) ? Read::kOk : Read::kSyntax;
  }

  /// An integer in [min, max].
  Read integer(std::uint64_t min, std::uint64_t max, std::uint64_t& v) {
    // What JsonReader::value() would not read as a number ('\0': the end).
    const char c = reader.peek();
    if (c == '{' || c == '[' || c == '"' || c == 't' || c == 'f' ||
        c == 'n' || c == '\0')
      return skip();
    std::string_view token;
    if (!reader.number(token)) return Read::kSyntax;
    std::uint64_t n = 0;
    if (!to_u64(token, max, n) || n < min) return Read::kBad;
    v = n;
    return Read::kOk;
  }

  bool member(std::string_view key) {
    if (key == "op") {
      std::string op;
      const Read r = text(op);
      if (r == Read::kOk) {
        if (op == "plan")
          out.op = Op::kPlan;
        else if (op == "execute")
          out.op = Op::kExecute;
        else if (op == "stats")
          out.op = Op::kStats;
        else
          bad("unknown op \"" + op + "\" (expected plan, execute or stats)");
        saw_op = true;
      }
      return checked(r, "\"op\" must be a string");
    }
    if (key == "id") {
      const Read r = integer(0, UINT64_MAX, out.id);
      out.has_id |= r == Read::kOk;
      return checked(r, "\"id\" must be a non-negative integer");
    }
    if (key == "machine")
      return checked(text(out.machine), "\"machine\" must be a string");
    if (key == "dist")
      return checked(text(out.dist), "\"dist\" must be a string");
    if (key == "sources") {
      std::uint64_t n = 0;
      const Read r = integer(0, 1u << 20, n);
      if (r == Read::kOk) out.sources = static_cast<int>(n);
      return checked(r, "\"sources\" must be a non-negative integer");
    }
    if (key == "len")
      return checked(integer(1, 1ull << 40, out.len),
                     "\"len\" must be a positive integer");
    if (key == "seed")
      return checked(integer(0, UINT64_MAX, out.seed),
                     "\"seed\" must be a non-negative integer");
    if (key == "faults")
      return checked(text(out.faults), "\"faults\" must be a string");
    if (key == "ranked")
      return checked(flag(out.ranked), "\"ranked\" must be a boolean");
    if (key == "deterministic")
      return checked(flag(out.deterministic),
                     "\"deterministic\" must be a boolean");
    bad("unknown field \"" + std::string(key) + "\"");
    return skip() != Read::kSyntax;
  }
};

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

void append_hex16(std::string& out, std::uint64_t v) {
  constexpr char kHex[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i, v >>= 4) buf[i] = kHex[v & 0xF];
  out.append(buf, sizeof(buf));
}

}  // namespace

std::string parse_request(std::string_view line, Request& out) {
  out = Request{};
  JsonReader reader(line);
  RequestFields fields(reader, out);
  reader.skip_ws();
  const bool is_object = reader.peek() == '{';
  const bool parsed =
      (is_object ? reader.object([&fields](std::string_view key) {
         return fields.member(key);
       })
                 : reader.value(nullptr)) &&
      reader.end();
  if (!parsed) {
    out = Request{};
    const JsonParseResult r = reader.result();
    return "malformed JSON at byte " + std::to_string(r.error_pos) + ": " +
           r.error;
  }
  if (!is_object) return "request must be a JSON object";
  if (!fields.error.empty()) return std::move(fields.error);
  if (!fields.saw_op) return "missing required field \"op\"";
  return "";
}

std::string signature_hex(const plan::Signature& sig) {
  std::string hex;
  append_hex16(hex, sig.key());
  return hex;
}

void write_plan_response(std::string& out, std::uint64_t id,
                         const Request& req, const plan::Plan& plan) {
  out.reserve(out.size() + 160 + plan.best().size() +
              (req.ranked ? 64 * plan.ranked.size() : 0));
  out += "{\"id\":";
  append_u64(out, id);
  out += ",\"ok\":true,\"op\":\"plan\",\"signature\":\"";
  append_hex16(out, plan.signature.key());
  out += "\",\"best\":";
  obs::append_json_string(out, plan.best());
  out += ",\"predicted_us\":";
  obs::append_fixed(out, plan.ranked.front().predicted_us, 3);
  out += ",\"planned_bytes\":";
  append_u64(out, static_cast<std::uint64_t>(plan.planned_bytes));
  if (req.ranked) {
    out += ",\"ranked\":[";
    bool first = true;
    for (const plan::Plan::Entry& e : plan.ranked) {
      if (!first) out += ',';
      first = false;
      out += "{\"algorithm\":";
      obs::append_json_string(out, e.algorithm);
      out += ",\"predicted_us\":";
      obs::append_fixed(out, e.predicted_us, 3);
      out += '}';
    }
    out += ']';
  }
  out += "}\n";
}

void write_execute_response(std::string& out, std::uint64_t id,
                            const Request& req, const std::string& algorithm,
                            const stop::RunResult& result) {
  out.reserve(out.size() + 192 + algorithm.size() + req.dist.size());
  out += "{\"id\":";
  append_u64(out, id);
  out += ",\"ok\":true,\"op\":\"execute\",\"algorithm\":";
  obs::append_json_string(out, algorithm);
  out += ",\"dist\":";
  obs::append_json_string(out, req.dist);
  out += ",\"time_us\":";
  obs::append_fixed(out, result.time_us, 3);
  out += ",\"total_sends\":";
  append_u64(out, result.outcome.metrics.total_sends);
  out += ",\"total_bytes_sent\":";
  append_u64(out,
             static_cast<std::uint64_t>(result.outcome.metrics.total_bytes_sent));
  out += "}\n";
}

void write_error_response(std::string& out, std::uint64_t id,
                          std::string_view error) {
  out.reserve(out.size() + 64 + error.size());
  out += "{\"id\":";
  append_u64(out, id);
  out += ",\"ok\":false,\"error\":";
  obs::append_json_string(out, error);
  out += "}\n";
}

void write_overloaded_response(std::string& out, std::uint64_t id) {
  write_error_response(out, id, "overloaded");
}

}  // namespace spb::serve
