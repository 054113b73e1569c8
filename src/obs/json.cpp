#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace spb::obs {

namespace {

constexpr int kMaxDecimals = 17;

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t i = 0;
  while (i < s.size()) {
    std::size_t plain = i;
    while (plain < s.size() && !needs_escape(s[plain])) ++plain;
    out.append(s, i, plain - i);
    if (plain == s.size()) break;
    const char c = s[plain];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const auto u = static_cast<unsigned char>(c);
        out += "\\u00";
        out += kHex[u >> 4];
        out += kHex[u & 0xF];
      }
    }
    i = plain + 1;
  }
  out += '"';
}

void append_fixed(std::string& out, double v, int decimals) {
  SPB_CHECK_MSG(decimals >= 0 && decimals <= kMaxDecimals,
                "append_fixed: decimals must be in [0, 17]");
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Sign, the integer digits of the largest finite double, point, decimals.
  char buf[1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 +
           kMaxDecimals];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::fixed, decimals);
  SPB_CHECK(ec == std::errc{});
  out.append(buf, end);
}

void JsonWriter::prepare_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  SPB_CHECK_MSG(stack_.empty() || stack_.back() == Scope::kArray,
                "JSON object members need a key() first");
  SPB_CHECK_MSG(!(stack_.empty() && wrote_top_level_),
                "only one top-level JSON value");
  if (!stack_.empty()) {
    if (!first_.back()) os_ << ',';
    first_.back() = false;
  }
  if (stack_.empty()) wrote_top_level_ = true;
}

void JsonWriter::begin_object() {
  prepare_value();
  os_ << '{';
  stack_.push_back(Scope::kObject);
  first_.push_back(true);
}

void JsonWriter::end_object() {
  SPB_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                "end_object() without begin_object()");
  SPB_CHECK_MSG(!pending_key_, "dangling key at end_object()");
  stack_.pop_back();
  first_.pop_back();
  os_ << '}';
}

void JsonWriter::begin_array() {
  prepare_value();
  os_ << '[';
  stack_.push_back(Scope::kArray);
  first_.push_back(true);
}

void JsonWriter::end_array() {
  SPB_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kArray,
                "end_array() without begin_array()");
  stack_.pop_back();
  first_.pop_back();
  os_ << ']';
}

void JsonWriter::key(std::string_view k) {
  SPB_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                "key() outside an object");
  SPB_CHECK_MSG(!pending_key_, "two keys in a row");
  if (!first_.back()) os_ << ',';
  first_.back() = false;
  write_string(k);
  os_ << ':';
  pending_key_ = true;
}

void JsonWriter::write_string(std::string_view s) {
  buf_.clear();
  append_json_string(buf_, s);
  os_ << buf_;
}

void JsonWriter::value(std::string_view s) {
  prepare_value();
  write_string(s);
}

void JsonWriter::value(bool b) {
  prepare_value();
  os_ << (b ? "true" : "false");
}

void JsonWriter::value(std::int64_t v) {
  prepare_value();
  os_ << v;
}

void JsonWriter::value(std::uint64_t v) {
  prepare_value();
  os_ << v;
}

void JsonWriter::value(double v, int decimals) {
  prepare_value();
  buf_.clear();
  append_fixed(buf_, v, decimals);
  os_ << buf_;
}

}  // namespace spb::obs
