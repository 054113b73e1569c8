#include "serve/json_value.h"

#include <cstdlib>

namespace spb::serve {

const JsonValue* JsonValue::find(std::string_view name) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [key, value] : members)
    if (key == name) return &value;
  return nullptr;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// BMP code point -> UTF-8 (surrogate pairs are passed through as two
/// 3-byte sequences; the protocol never carries non-BMP text).
void append_utf8(std::string& out, std::uint32_t code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

}  // namespace

void JsonReader::skip_ws() {
  // The C locale's isspace: space and \t \n \v \f \r.
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || (text_[pos_] >= '\t' && text_[pos_] <= '\r')))
    ++pos_;
}

bool JsonReader::value(JsonValue* out) {
  if (pos_ >= text_.size()) return set_error("unexpected end of input");
  switch (text_[pos_]) {
    case '{':
      if (out == nullptr)
        return object([this](std::string_view) { return value(nullptr); });
      out->kind = JsonValue::Kind::kObject;
      return object([this, out](std::string_view key) {
        JsonValue member;
        if (!value(&member)) return false;
        out->members.emplace_back(std::string(key), std::move(member));
        return true;
      });
    case '[':
      return array(out);
    case '"':
      if (out == nullptr) {
        scratch_.clear();
        return string(scratch_);
      }
      out->kind = JsonValue::Kind::kString;
      return string(out->string_value);
    case 't':
    case 'f': {
      bool b = false;
      if (!boolean(b)) return false;
      if (out != nullptr) {
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = b;
      }
      return true;
    }
    case 'n':
      if (out != nullptr) out->kind = JsonValue::Kind::kNull;
      return literal("null");
    default: {
      std::string_view token;
      if (!number(token)) return false;
      if (out != nullptr) {
        out->kind = JsonValue::Kind::kNumber;
        out->number_value = std::strtod(std::string(token).c_str(), nullptr);
      }
      return true;
    }
  }
}

bool JsonReader::array(JsonValue* out) {
  if (out != nullptr) out->kind = JsonValue::Kind::kArray;
  ++pos_;  // '['
  skip_ws();
  if (peek() == ']') {
    ++pos_;
    return true;
  }
  while (true) {
    skip_ws();
    JsonValue item;
    if (!value(out != nullptr ? &item : nullptr)) return false;
    if (out != nullptr) out->items.push_back(std::move(item));
    skip_ws();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    return set_error("expected ',' or ']' in array");
  }
}

bool JsonReader::string(std::string& out) {
  if (peek() != '"') return set_error("expected a string");
  ++pos_;
  while (pos_ < text_.size()) {
    std::size_t plain = pos_;
    while (plain < text_.size() && text_[plain] != '"' &&
           text_[plain] != '\\' &&
           static_cast<unsigned char>(text_[plain]) >= 0x20)
      ++plain;
    out.append(text_.substr(pos_, plain - pos_));
    pos_ = plain;
    if (pos_ == text_.size()) break;
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return true;
    }
    if (c != '\\') return set_error("unescaped control character in string");
    ++pos_;
    if (pos_ >= text_.size()) return set_error("unterminated escape sequence");
    if (!escape(out)) return false;
  }
  return set_error("unterminated string");
}

bool JsonReader::escape(std::string& out) {
  const char esc = text_[pos_];
  ++pos_;
  switch (esc) {
    case '"':
    case '\\':
    case '/':
      out.push_back(esc);
      return true;
    case 'b':
      out.push_back('\b');
      return true;
    case 'f':
      out.push_back('\f');
      return true;
    case 'n':
      out.push_back('\n');
      return true;
    case 'r':
      out.push_back('\r');
      return true;
    case 't':
      out.push_back('\t');
      return true;
    case 'u': {
      std::uint32_t code = 0;
      for (int i = 0; i < 4; ++i) {
        if (pos_ >= text_.size()) return set_error("truncated \\u escape");
        const char h = text_[pos_];
        ++pos_;
        code <<= 4;
        if (h >= '0' && h <= '9')
          code |= static_cast<std::uint32_t>(h - '0');
        else if (h >= 'a' && h <= 'f')
          code |= static_cast<std::uint32_t>(h - 'a' + 10);
        else if (h >= 'A' && h <= 'F')
          code |= static_cast<std::uint32_t>(h - 'A' + 10);
        else
          return set_error("bad hex digit in \\u escape");
      }
      append_utf8(out, code);
      return true;
    }
    default:
      return set_error("unknown escape character");
  }
}

bool JsonReader::number(std::string_view& token) {
  const std::size_t start = pos_;
  if (peek() == '-') ++pos_;
  while (is_digit(peek())) ++pos_;
  if (peek() == '.') {
    ++pos_;
    while (is_digit(peek())) ++pos_;
  }
  if (peek() == 'e' || peek() == 'E') {
    ++pos_;
    if (peek() == '+' || peek() == '-') ++pos_;
    while (is_digit(peek())) ++pos_;
  }
  if (pos_ == start || !is_digit(text_[pos_ - 1])) {
    pos_ = start;
    return set_error("expected a value");
  }
  token = text_.substr(start, pos_ - start);
  return true;
}

bool JsonReader::boolean(bool& out) {
  out = peek() == 't';
  return literal(out ? "true" : "false");
}

bool JsonReader::end() {
  skip_ws();
  if (pos_ == text_.size()) return true;
  return set_error("trailing characters after the JSON value");
}

bool JsonReader::literal(const char* word) {
  for (const char* c = word; *c != 0; ++c, ++pos_)
    if (pos_ >= text_.size() || text_[pos_] != *c)
      return set_error("bad literal");
  return true;
}

bool JsonReader::set_error(const char* message) {
  if (error_ == nullptr) error_ = message;
  return false;
}

JsonParseResult JsonReader::result() const {
  if (error_ == nullptr) return {.ok = true, .error_pos = 0, .error = ""};
  return {.ok = false, .error_pos = pos_, .error = error_};
}

JsonParseResult parse_json(std::string_view text, JsonValue& out) {
  out = JsonValue{};
  JsonReader reader(text);
  reader.skip_ws();
  if (reader.value(&out)) reader.end();
  return reader.result();
}

}  // namespace spb::serve
