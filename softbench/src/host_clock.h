#pragma once

// Host-side measurement for the benchmark driver: wall time, process CPU time
// and peak resident set. The simulator itself never reads a host clock (the
// determinism contract); the benchmark measures it from outside, so host
// time is confined to this header.
// SOFTRES_LINT_ALLOW(SR009: the benchmark measures host time by design)

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>

namespace softbench {

/// Monotonic host time in nanoseconds (CLOCK_MONOTONIC, the same clock
/// Python's time.monotonic_ns() reads, so a parent can pass a start stamp).
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// CPU seconds of the whole process, summed over all of its threads.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// CPU seconds of the calling thread only.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of the process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace softbench
