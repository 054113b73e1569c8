// Strict numeric parsing for user-facing inputs (CLI flags, fault specs,
// config strings).  The std:: conversions are traps for this: std::stoull
// silently wraps "-1" to 2^64-1, std::stod accepts "inf" and leading junk
// survives partial parses like "5x" unless every caller remembers the
// &used check, and out-of-range inputs ("1e999") surface as a bare
// exception type with no text.  These helpers reject all of that and say
// exactly what was wrong, so `drop=-1`, `lat=1e999` and `timeout=5x` fail
// with messages a user can act on.
#pragma once

#include <cstdint>
#include <string>

namespace spb {

/// Strictly parses a finite double.  Rejects empty values, trailing junk
/// ("5x"), out-of-range magnitudes ("1e999") and non-finite spellings
/// ("inf", "nan").  On failure returns false and fills `error` with the
/// reason.
bool try_parse_double(const std::string& text, double& out,
                      std::string& error);

/// Strictly parses an unsigned 64-bit integer.  Rejects empty values,
/// signs (so "-1" cannot wrap around), non-digit characters, trailing
/// junk and overflow.  On failure returns false and fills `error`.
bool try_parse_u64(const std::string& text, std::uint64_t& out,
                   std::string& error);

/// try_parse_u64 restricted to [0, max], for int-sized flags.
bool try_parse_int(const std::string& text, int& out, std::string& error,
                   int max = 1'000'000'000);

/// Throwing forms for callers without an error channel: CheckError whose
/// message names `what` (a key or flag) plus the reason.
double parse_double_or_throw(const std::string& what,
                             const std::string& text);
std::uint64_t parse_u64_or_throw(const std::string& what,
                                 const std::string& text);
int parse_int_or_throw(const std::string& what, const std::string& text,
                       int max = 1'000'000'000);

}  // namespace spb
