#include "common/parse.h"

#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace spb {

bool try_parse_double(const std::string& text, double& out,
                      std::string& error) {
  if (text.empty()) {
    error = "empty value";
    return false;
  }
  double d = 0;
  std::size_t used = 0;
  try {
    d = std::stod(text, &used);
  } catch (const std::invalid_argument&) {
    error = "not a number";
    return false;
  } catch (const std::out_of_range&) {
    error = "out of range for a double";
    return false;
  }
  if (used != text.size()) {
    error = "trailing junk '" + text.substr(used) + "' after number";
    return false;
  }
  if (!std::isfinite(d)) {
    error = "not a finite number";
    return false;
  }
  out = d;
  return true;
}

bool try_parse_u64(const std::string& text, std::uint64_t& out,
                   std::string& error) {
  if (text.empty()) {
    error = "empty value";
    return false;
  }
  if (text[0] == '-') {
    error = "negative value not allowed";
    return false;
  }
  // No signs, no whitespace: digits only (std::stoull would skip leading
  // spaces and wrap "-1" to 2^64-1).
  for (const char c : text) {
    if (c < '0' || c > '9') {
      error = std::string("invalid character '") + c + "' in number";
      return false;
    }
  }
  try {
    std::size_t used = 0;
    out = std::stoull(text, &used);
    return used == text.size();
  } catch (const std::out_of_range&) {
    error = "out of range for a 64-bit unsigned integer";
    return false;
  } catch (const std::invalid_argument&) {
    error = "not a number";
    return false;
  }
}

bool try_parse_int(const std::string& text, int& out, std::string& error,
                   int max) {
  std::uint64_t v = 0;
  if (!try_parse_u64(text, v, error)) return false;
  if (v > static_cast<std::uint64_t>(max)) {
    error = "value exceeds maximum " + std::to_string(max);
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

double parse_double_or_throw(const std::string& what,
                             const std::string& text) {
  double d = 0;
  std::string error;
  SPB_REQUIRE(try_parse_double(text, d, error),
              what << " '" << text << "': " << error);
  return d;
}

std::uint64_t parse_u64_or_throw(const std::string& what,
                                 const std::string& text) {
  std::uint64_t v = 0;
  std::string error;
  SPB_REQUIRE(try_parse_u64(text, v, error),
              what << " '" << text << "': " << error);
  return v;
}

int parse_int_or_throw(const std::string& what, const std::string& text,
                       int max) {
  int v = 0;
  std::string error;
  SPB_REQUIRE(try_parse_int(text, v, error, max),
              what << " '" << text << "': " << error);
  return v;
}

}  // namespace spb
