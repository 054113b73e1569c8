// Precondition / invariant checking in the spirit of the C++ Core
// Guidelines' Expects()/Ensures().  Violations throw spb::CheckError with a
// formatted description of the failing expression and location; benches and
// examples report them instead of corrupting results silently.
//
// SPB_CHECK   — always-on invariant check (cheap; used on hot-ish paths too,
//               the simulator is far from instruction-bound).
// SPB_REQUIRE — precondition check on public API entry points, with a
//               user-facing message.
//
// The message of SPB_CHECK_MSG / SPB_REQUIRE is formatted out of line: the
// macro hands a `[&](std::ostream&)` formatter to a cold, never-inlined
// helper, which owns the std::ostringstream.  A stream declared at the
// call site would sit in the caller's frame — and a coroutine's frame is a
// heap block holding every local of its body, so each check in a rank
// program used to park a 376-byte stream there (five in every
// coll::run_halving frame, 2968 bytes in all, 1088 without them).  The
// passing path costs one branch.
#pragma once

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace spb {

/// Thrown when a SPB_CHECK / SPB_REQUIRE condition fails.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn, gnu::cold, gnu::noinline]] inline void check_failed(
    const char* kind, const char* expr, const char* file, int line,
    std::string_view msg = {}) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

/// check_failed with a message streamed by `format(std::ostream&)`.
template <typename Format>
[[noreturn, gnu::cold, gnu::noinline]] void check_failed_fmt(
    const char* kind, const char* expr, const char* file, int line,
    const Format& format) {
  std::ostringstream os;
  format(static_cast<std::ostream&>(os));
  check_failed(kind, expr, file, line, os.str());
}

}  // namespace detail
}  // namespace spb

#define SPB_CHECK(cond)                                                     \
  do {                                                                      \
    if (!(cond))                                                            \
      ::spb::detail::check_failed("SPB_CHECK", #cond, __FILE__, __LINE__);  \
  } while (0)

#define SPB_CHECK_MSG(cond, msg)                                            \
  do {                                                                      \
    if (!(cond))                                                            \
      ::spb::detail::check_failed_fmt(                                      \
          "SPB_CHECK", #cond, __FILE__, __LINE__,                           \
          [&](std::ostream& spb_check_os_) { spb_check_os_ << msg; });      \
  } while (0)

#define SPB_REQUIRE(cond, msg)                                              \
  do {                                                                      \
    if (!(cond))                                                            \
      ::spb::detail::check_failed_fmt(                                      \
          "SPB_REQUIRE", #cond, __FILE__, __LINE__,                         \
          [&](std::ostream& spb_check_os_) { spb_check_os_ << msg; });      \
  } while (0)
