// A std::streambuf that records the steady-clock time at which each line
// reaches it.  Handed to serve::Server as its response stream, it gives
// the time every response line was written; responses come out in
// submission order, so line i answers request i.
//
// One writer at a time (the server writes under its output mutex); lines()
// may be read concurrently, everything else only once writers are quiet
// (after Server::drain()).
#pragma once

#include <atomic>
#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

class StampBuf : public std::streambuf {
 public:
  /// Forgets all lines; reserves room for `expected_lines`.
  void reset(std::size_t expected_lines);

  /// Complete lines written so far.
  std::uint64_t lines() const { return lines_.load(std::memory_order_acquire); }
  /// now_ns() at which each complete line's newline was written.
  const std::vector<std::int64_t>& stamps() const { return stamps_; }
  /// Everything written since reset().
  const std::string& text() const { return text_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::string text_;
  std::vector<std::int64_t> stamps_;
  std::atomic<std::uint64_t> lines_{0};
};

}  // namespace perfbench
