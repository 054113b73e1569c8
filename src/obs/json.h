// Minimal streaming JSON writer for the observability exporters.  Emits
// strict JSON (UTF-8 pass-through, control characters escaped) with
// deterministic number formatting so golden-file tests stay stable across
// platforms: doubles print as fixed-point with a caller-chosen number of
// decimals, never in scientific notation.
//
//   JsonWriter w(os);
//   w.begin_object();
//   w.key("name"); w.value("2-Step");
//   w.key("time_us"); w.value(123.456, 3);
//   w.key("phases"); w.begin_array(); ... w.end_array();
//   w.end_object();
//
// Commas and nesting are tracked internally; mismatched begin/end or a
// value without a key inside an object trips an SPB_CHECK.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace spb::obs {

/// The escaping and number routines behind JsonWriter, for writers that
/// build a line in a string (the serve response writers).
///
/// Appends `s` as a JSON string literal: quote and backslash escaped,
/// \n \r \t by name, other control characters as \u00xx, UTF-8 passed
/// through.
void append_json_string(std::string& out, std::string_view s);

/// Appends `v` in fixed point with `decimals` digits (0 to 17), never in
/// scientific notation; non-finite values append null.
void append_fixed(std::string& out, double v, int decimals);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}
  ~JsonWriter() = default;
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object member name; must be followed by exactly one value/container.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(std::int64_t v);
  void value(std::uint64_t v);
  /// Fixed-point with `decimals` digits; non-finite values emit null.
  void value(double v, int decimals = 3);

  /// key() + value() in one call.
  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }
  void field(std::string_view k, double v, int decimals) {
    key(k);
    value(v, decimals);
  }

  /// All containers closed (diagnostics for callers that want to assert).
  bool complete() const { return stack_.empty() && wrote_top_level_; }

 private:
  enum class Scope { kObject, kArray };

  void prepare_value();
  void write_string(std::string_view s);

  std::ostream& os_;
  std::string buf_;  // write_string / value(double) scratch
  std::vector<Scope> stack_;
  std::vector<bool> first_;   // parallel to stack_: no comma needed yet
  bool pending_key_ = false;  // a key was written, a value must follow
  bool wrote_top_level_ = false;
};

}  // namespace spb::obs
