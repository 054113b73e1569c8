// Minimal recursive-descent JSON reader for the serve protocol — the
// parsing counterpart of obs::JsonWriter, equally dependency-free.
//
// JsonReader is the one lexer and grammar.  parse_json() uses it to build
// a small value tree; object members keep their source order (a vector of
// pairs, no hashing) because documents are tiny and deterministic
// iteration matters more than lookup speed.  serve::parse_request() uses
// it to read a request straight into its fields, with no tree.
//
// Strict: full string-escape grammar (\uXXXX decoded to UTF-8), no
// trailing garbage.  The obs and serve tests use parse_json to check that
// every JSON document the writers emit is well-formed.  Errors come back
// as a position + message instead of an exception so a serving loop can
// turn a malformed line into a structured error response and keep going.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spb::serve {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject
  std::vector<JsonValue> items;                            // kArray

  bool is_object() const { return kind == Kind::kObject; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }

  /// First member with this name, or nullptr (objects only).
  const JsonValue* find(std::string_view name) const;
};

struct JsonParseResult {
  bool ok = false;
  std::size_t error_pos = 0;  // byte offset of the failure
  std::string error;          // "" when ok
};

/// A cursor over one JSON document.  Every reading method consumes one
/// token or value at the cursor and returns false on a syntax error; the
/// first error and its byte offset are kept for result().
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The next byte, or '\0' at the end of the text.
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws();

  /// Any value; into `out`, or just checked and skipped when null.
  bool value(JsonValue* out);
  /// An object.  For each member, calls `member(key)` with the cursor on
  /// the member's value; `member` must consume that value and return
  /// false on a syntax error.
  template <typename Member>
  bool object(Member&& member);
  /// A string literal, decoded and appended to `out`.
  bool string(std::string& out);
  /// A number; `token` is its text.
  bool number(std::string_view& token);
  /// true or false.
  bool boolean(bool& out);
  /// Only whitespace remains.
  bool end();

  /// ok = no syntax error so far.
  JsonParseResult result() const;

 private:
  bool array(JsonValue* out);
  bool escape(std::string& out);
  bool literal(const char* word);
  bool set_error(const char* message);

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* error_ = nullptr;
  std::string scratch_;  // strings skipped by value(nullptr)
};

template <typename Member>
bool JsonReader::object(Member&& member) {
  if (peek() != '{') return set_error("expected an object");
  ++pos_;
  skip_ws();
  if (peek() == '}') {
    ++pos_;
    return true;
  }
  std::string key;
  while (true) {
    skip_ws();
    key.clear();
    if (!string(key)) return set_error("expected an object key");
    skip_ws();
    if (peek() != ':') return set_error("expected ':' after object key");
    ++pos_;
    skip_ws();
    if (!member(std::string_view(key))) return false;
    skip_ws();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    return set_error("expected ',' or '}' in object");
  }
}

/// Parses exactly one JSON document (leading/trailing whitespace allowed,
/// anything else after the value is an error).
JsonParseResult parse_json(std::string_view text, JsonValue& out);

}  // namespace spb::serve
