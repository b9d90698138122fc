#pragma once

// Strict command-line parsing for the examples. Every parser takes the whole
// argument or nothing: "", "lots", "1x", " 5" and (for counts and seeds) "-5"
// are rejected instead of being read as 0 or wrapped through an unsigned
// type. A rejected argument prints what was expected and the usage line to
// stderr and exits with status 2.

#include <cerrno>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>

namespace softres::cli {

/// The program name and its argument synopsis, for the usage line.
struct Usage {
  const char* prog;
  const char* args;
};

[[noreturn]] inline void reject(const Usage& u, const char* what,
                                const char* expected, const char* arg) {
  std::cerr << u.prog << ": " << what << " must be " << expected << ", got '"
            << arg << "'\n"
            << "Usage: " << u.prog << " " << u.args << "\n";
  std::exit(2);
}

/// True when `arg` is plain decimal digits naming a value that fits in 64
/// bits; strtoull alone would skip blanks and wrap a leading '-'.
inline bool parse_digits(const char* arg, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (arg[0] < '0' || arg[0] > '9' || *end != '\0' || errno == ERANGE) {
    return false;
  }
  out = v;
  return true;
}

/// An unsigned 64-bit decimal integer (a base seed).
inline std::uint64_t u64_arg(const Usage& u, const char* what,
                             const char* arg) {
  std::uint64_t v = 0;
  if (!parse_digits(arg, v)) {
    reject(u, what, "an unsigned 64-bit integer", arg);
  }
  return v;
}

/// A positive decimal count (users, workloads).
inline std::size_t count_arg(const Usage& u, const char* what,
                             const char* arg) {
  std::uint64_t v = 0;
  if (!parse_digits(arg, v) || v < 1) {
    reject(u, what, "a positive integer", arg);
  }
  return static_cast<std::size_t>(v);
}

/// A finite positive real (a threshold in seconds, a factor).
inline double positive_arg(const Usage& u, const char* what,
                           const char* arg) {
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  // strtod skips leading blanks; the argument must start with the number.
  if (end == arg || *end != '\0' ||
      std::isspace(static_cast<unsigned char>(arg[0])) != 0 || !(v > 0.0) ||
      !std::isfinite(v)) {
    reject(u, what, "a positive number", arg);
  }
  return v;
}

}  // namespace softres::cli
