#include "stamp_buf.h"

#include <cstring>

#include "trace.h"

namespace perfbench {

void StampBuf::reset(std::size_t expected_lines) {
  text_.clear();
  stamps_.clear();
  stamps_.reserve(expected_lines);
  lines_.store(0, std::memory_order_release);
}

StampBuf::int_type StampBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof()))
    return traits_type::not_eof(ch);
  const char c = traits_type::to_char_type(ch);
  xsputn(&c, 1);
  return ch;
}

std::streamsize StampBuf::xsputn(const char* s, std::streamsize n) {
  text_.append(s, static_cast<std::size_t>(n));
  const char* end = s + n;
  for (const char* p = s;
       (p = static_cast<const char*>(std::memchr(p, '\n', end - p))) !=
       nullptr;
       ++p) {
    stamps_.push_back(now_ns());
    lines_.fetch_add(1, std::memory_order_release);
  }
  return n;
}

}  // namespace perfbench
