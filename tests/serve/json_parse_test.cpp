// serve::parse_json (the dependency-free protocol reader),
// serve::parse_request (field validation on top of it), and the response
// writers' number formatting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "serve/json_value.h"
#include "serve/protocol.h"

namespace spb::serve {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  const JsonParseResult r = parse_json(text, v);
  EXPECT_TRUE(r.ok) << text << " -> " << r.error << " at " << r.error_pos;
  return v;
}

std::string parse_err(const std::string& text) {
  JsonValue v;
  const JsonParseResult r = parse_json(text, v);
  EXPECT_FALSE(r.ok) << "unexpectedly parsed: " << text;
  EXPECT_LE(r.error_pos, text.size());
  return r.error;
}

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_ok("true").bool_value, true);
  EXPECT_EQ(parse_ok("false").bool_value, false);
  EXPECT_EQ(parse_ok("null").kind, JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(parse_ok("42").number_value, 42.0);
  EXPECT_DOUBLE_EQ(parse_ok("-3.5e2").number_value, -350.0);
  EXPECT_EQ(parse_ok("\"hi\"").string_value, "hi");
  EXPECT_EQ(parse_ok("  1024  ").number_value, 1024.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_ok(R"("a\"b")").string_value, "a\"b");
  EXPECT_EQ(parse_ok(R"("a\\b")").string_value, "a\\b");
  EXPECT_EQ(parse_ok(R"("a\n\t\r")").string_value, "a\n\t\r");
  EXPECT_EQ(parse_ok(R"("a\/b")").string_value, "a/b");
  // \uXXXX decodes to UTF-8: ASCII, 2-byte, 3-byte.
  EXPECT_EQ(parse_ok("\"\\u0041\"").string_value, "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").string_value, "\xc3\xa9");
  EXPECT_EQ(parse_ok("\"\\u2713\"").string_value, "\xe2\x9c\x93");
  // Raw UTF-8 passes through untouched.
  EXPECT_EQ(parse_ok("\"\xc3\xa9\"").string_value, "\xc3\xa9");
}

TEST(JsonParse, ObjectsKeepSourceOrder) {
  const JsonValue v = parse_ok(R"({"b":1,"a":2,"c":[3,{"d":4}]})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "b");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[2].first, "c");
  ASSERT_EQ(v.members[2].second.items.size(), 2u);
  EXPECT_DOUBLE_EQ(v.members[2].second.items[0].number_value, 3.0);
  const JsonValue* d = v.members[2].second.items[1].find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->number_value, 4.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  parse_err("");
  parse_err("{");
  parse_err("[1,2");
  parse_err("[1,]");
  parse_err(R"({"a":})");
  parse_err(R"({"a" 1})");
  parse_err(R"({a:1})");
  parse_err("\"unterminated");
  parse_err(R"("bad \q escape")");
  parse_err(R"("\u12g4")");
  parse_err("1 2");          // trailing garbage
  parse_err("{}try this");   // trailing garbage after a value
  parse_err(R"({"a":1} x)");
  parse_err("nul");
  parse_err("+1");
  parse_err("\x01garbage");
}

TEST(JsonParse, ErrorPositionPointsAtTheFailure) {
  JsonValue v;
  const JsonParseResult r = parse_json(R"({"op":"plan",})", v);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error_pos, 13u);  // the '}' where a key was expected
}

TEST(ParseRequest, DefaultsAndFields) {
  Request req;
  EXPECT_EQ(parse_request(R"({"op":"plan"})", req), "");
  EXPECT_EQ(req.op, Op::kPlan);
  EXPECT_FALSE(req.has_id);
  EXPECT_EQ(req.machine, "");
  EXPECT_EQ(req.dist, "R");
  EXPECT_EQ(req.sources, 0);
  EXPECT_EQ(req.len, 2048u);
  EXPECT_EQ(req.seed, 1u);
  EXPECT_FALSE(req.ranked);

  EXPECT_EQ(parse_request(
                R"({"op":"execute","id":9,"machine":"t3d64","dist":"Sq",)"
                R"("sources":8,"len":512,"seed":4,"faults":"drop=0.1",)"
                R"("ranked":true,"deterministic":true})",
                req),
            "");
  EXPECT_EQ(req.op, Op::kExecute);
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 9u);
  EXPECT_EQ(req.machine, "t3d64");
  EXPECT_EQ(req.dist, "Sq");
  EXPECT_EQ(req.sources, 8);
  EXPECT_EQ(req.len, 512u);
  EXPECT_EQ(req.seed, 4u);
  EXPECT_EQ(req.faults, "drop=0.1");
  EXPECT_TRUE(req.ranked);
  EXPECT_TRUE(req.deterministic);
}

TEST(ParseRequest, RejectsBadRequests) {
  Request req;
  EXPECT_NE(parse_request("[1,2,3]", req), "");          // not an object
  EXPECT_NE(parse_request("{}", req), "");               // missing op
  EXPECT_NE(parse_request(R"({"op":"warp"})", req), "");  // unknown op
  EXPECT_NE(parse_request(R"({"op":1})", req), "");       // op not a string
  EXPECT_NE(parse_request(R"({"op":"plan","id":-1})", req), "");
  EXPECT_NE(parse_request(R"({"op":"plan","id":1.5})", req), "");
  EXPECT_NE(parse_request(R"({"op":"plan","len":0})", req), "");
  EXPECT_NE(parse_request(R"({"op":"plan","len":"big"})", req), "");
  EXPECT_NE(parse_request(R"({"op":"plan","sources":-4})", req), "");
  EXPECT_NE(parse_request(R"({"op":"plan","ranked":"yes"})", req), "");
  EXPECT_NE(parse_request(R"({"op":"plan","bogus":1})", req), "");
  const std::string err = parse_request("{\"op\":\"plan\",}", req);
  EXPECT_NE(err.find("malformed JSON"), std::string::npos) << err;
}

TEST(ParseRequest, ErrorsKeepTheirTextAndPrecedence) {
  Request req;
  // The exact wire messages.
  EXPECT_EQ(parse_request(R"({"op":"warp"})", req),
            "unknown op \"warp\" (expected plan, execute or stats)");
  EXPECT_EQ(parse_request(R"({"op":1})", req), "\"op\" must be a string");
  EXPECT_EQ(parse_request(R"({"op":"plan","bogus":[1,{"a":2}]})", req),
            "unknown field \"bogus\"");
  EXPECT_EQ(parse_request(R"({"op":"plan","dist":7})", req),
            "\"dist\" must be a string");
  EXPECT_EQ(parse_request(R"({"op":"plan","ranked":null})", req),
            "\"ranked\" must be a boolean");
  EXPECT_EQ(parse_request(R"({"op":"plan","sources":"4"})", req),
            "\"sources\" must be a non-negative integer");
  EXPECT_EQ(parse_request("[1,2,3]", req), "request must be a JSON object");
  EXPECT_EQ(parse_request("{}", req), "missing required field \"op\"");
  EXPECT_EQ(parse_request(R"({"op":"plan",})", req),
            "malformed JSON at byte 13: expected a string");
  EXPECT_EQ(parse_request(R"({"op":"plan","id":)", req),
            "malformed JSON at byte 18: unexpected end of input");
  EXPECT_EQ(parse_request("", req),
            "malformed JSON at byte 0: unexpected end of input");
  // A syntax error anywhere beats a bad member before it...
  EXPECT_EQ(parse_request(R"({"op":"warp","len":0,"x":tru})", req),
            "malformed JSON at byte 28: bad literal");
  // ...the first bad member beats later ones...
  EXPECT_EQ(parse_request(R"({"len":0,"op":"warp","bogus":1})", req),
            "\"len\" must be a positive integer");
  // ...and any bad member beats a missing op.
  EXPECT_EQ(parse_request(R"({"bogus":1})", req), "unknown field \"bogus\"");
}

TEST(ParseRequest, IdIsReadPastAnEarlierBadMember) {
  Request req;
  EXPECT_NE(parse_request(R"({"op":"warp","id":12})", req), "");
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 12u);
  EXPECT_NE(parse_request(R"({"len":0,"bogus":true,"id":7})", req), "");
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 7u);
  // A bad id is not an id.
  EXPECT_NE(parse_request(R"({"op":"warp","id":-3})", req), "");
  EXPECT_FALSE(req.has_id);
  // Malformed JSON carries no id, wherever the id sits.
  EXPECT_NE(parse_request(R"({"id":5,"op":"plan",)", req), "");
  EXPECT_FALSE(req.has_id);
}

TEST(ParseRequest, IntegersAreExact) {
  Request req;
  // 2^53 + 1 is not a double.
  ASSERT_EQ(parse_request(
                R"({"op":"plan","id":9007199254740993,"seed":9007199254740993})",
                req),
            "");
  EXPECT_EQ(req.id, 9007199254740993u);
  EXPECT_EQ(req.seed, 9007199254740993u);
  // 2^64 - 1 is the largest id and seed.
  ASSERT_EQ(parse_request(R"({"op":"plan","id":18446744073709551615,)"
                          R"("seed":18446744073709551615})",
                          req),
            "");
  EXPECT_EQ(req.id, UINT64_MAX);
  EXPECT_EQ(req.seed, UINT64_MAX);
  // 2^64, in every spelling, is too large.
  EXPECT_EQ(parse_request(R"({"op":"plan","id":18446744073709551616})", req),
            "\"id\" must be a non-negative integer");
  EXPECT_FALSE(req.has_id);
  EXPECT_EQ(parse_request(R"({"op":"plan","id":1.8446744073709552e19})", req),
            "\"id\" must be a non-negative integer");
  EXPECT_EQ(parse_request(R"({"op":"plan","seed":18446744073709551616})", req),
            "\"seed\" must be a non-negative integer");
  EXPECT_EQ(parse_request(R"({"op":"plan","seed":1e20})", req),
            "\"seed\" must be a non-negative integer");
  // Each field keeps its own bound.
  EXPECT_EQ(parse_request(R"({"op":"plan","sources":1048576})", req), "");
  EXPECT_EQ(req.sources, 1048576);
  EXPECT_EQ(parse_request(R"({"op":"plan","sources":1048577})", req),
            "\"sources\" must be a non-negative integer");
  EXPECT_EQ(parse_request(R"({"op":"plan","len":1099511627776})", req), "");
  EXPECT_EQ(req.len, 1099511627776u);
  EXPECT_EQ(parse_request(R"({"op":"plan","len":1099511627777})", req),
            "\"len\" must be a positive integer");
  // The other integral spellings still work.
  ASSERT_EQ(parse_request(R"({"op":"plan","id":1e3,"len":2.0,"seed":-0})", req),
            "");
  EXPECT_EQ(req.id, 1000u);
  EXPECT_EQ(req.len, 2u);
  EXPECT_EQ(req.seed, 0u);
  EXPECT_NE(parse_request(R"({"op":"plan","id":2.5})", req), "");
  EXPECT_NE(parse_request(R"({"op":"plan","seed":-1})", req), "");
}

TEST(ResponseWriters, HugeTimesKeepEveryDigit) {
  plan::Plan plan;
  plan.planned_bytes = 1024;
  plan.ranked = {{.algorithm = "Br_Lin", .predicted_us = 1e300},
                 {.algorithm = "2-Step",
                  .predicted_us = std::numeric_limits<double>::max()}};
  Request req;
  req.ranked = true;
  std::string line;
  write_plan_response(line, 7, req, plan);
  char huge[400];
  std::snprintf(huge, sizeof(huge), "%.3f", 1e300);
  char max[400];
  std::snprintf(max, sizeof(max), "%.3f", std::numeric_limits<double>::max());
  EXPECT_NE(line.find(std::string("\"best\":\"Br_Lin\",\"predicted_us\":") +
                      huge + ","),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(std::string("\"predicted_us\":") + max + "}]}"),
            std::string::npos)
      << line;
  JsonValue doc;
  EXPECT_TRUE(parse_json(line, doc).ok) << line;
}

}  // namespace
}  // namespace spb::serve
