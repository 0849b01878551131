// Strict command-line parsing shared by the examples: a malformed or
// out-of-range argument is a usage error (exit 2), never a crash, a
// hang or a huge allocation.
#pragma once

#include <cerrno>
#include <cstdlib>

namespace prt::examples {

/// Parses `arg` as a decimal integer in [lo, hi].  strtoul wraps
/// negatives and overflow instead of failing, so both are rejected
/// explicitly, as are empty strings and trailing characters.
inline bool parse_unsigned(const char* arg, unsigned long lo,
                           unsigned long hi, unsigned long& out) {
  if (arg[0] == '-' || arg[0] == '\0') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoul(arg, &end, 10);
  return errno == 0 && end != arg && *end == '\0' && out >= lo && out <= hi;
}

}  // namespace prt::examples
