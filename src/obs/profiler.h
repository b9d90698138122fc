#pragma once

// obs::Profiler — owning facade over the prof::Ledger instrumentation core
// (src/support/prof.h). The ledger is the raw, allocation-free accumulator
// the hot paths write into; this layer installs it for a trial, calibrates
// the cycle counter against a real clock (legal here: obs is the clock-
// exempt domain), snapshots results into an aggregatable value type, and
// renders it three ways:
//
//   1. a text summary table            (render_profile_table)
//   2. a one-line summary              (one_line_profile_summary) for
//      quickstart output and report footers
//   3. a collapsed-stack file          (write_collapsed_stacks) for
//      flamegraph.pl / speedscope, written by `bench_kernel --profile`
//
// Determinism split (DESIGN.md §11): ProfileSnapshot::counts is the
// deterministic axis — safe to compare bit-for-bit across jobs=1/jobs=4.
// cycles/paths/calibration are the timing axis — machine-local, rendered
// but never compared and never fed back into simulation results.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/prof.h"

namespace softres::obs {

/// Value-type copy of one or more ledgers, mergeable across trials so a
/// sweep (or a whole bench run) can report a single attribution.
struct ProfileSnapshot {
  bool enabled = false;  // false => profiling was off; renderers emit nothing

  // Count axis (deterministic).
  std::uint64_t counts[prof::kPhases][prof::kSubsystems] = {};

  // Timing axis (machine-local).
  std::uint64_t cycles[prof::kSubsystems] = {};
  std::uint64_t scope_entries[prof::kSubsystems] = {};
  struct Path {
    std::vector<prof::Subsystem> frames;  // root first
    std::uint64_t cycles = 0;             // exclusive to the leaf frame
    std::uint64_t count = 0;
  };
  std::vector<Path> paths;  // sorted by frame sequence (deterministic order)
  std::uint64_t path_overflow_cycles = 0;

  // Calibration (per-process, measured once in profiler.cc).
  double cycles_per_second = 0.0;
  double scope_cost_cycles = 0.0;  // measured cost of one empty timed scope

  std::uint64_t total_counts() const;
  std::uint64_t total_counts(prof::Phase phase) const;
  std::uint64_t total_cycles() const;
  std::uint64_t total_scope_entries() const;
  /// Estimated fraction of measured cycles spent in the profiler itself:
  /// scope_entries * scope_cost / total_cycles, clamped to [0, 1].
  double overhead_fraction() const;
  /// Subsystem indices sorted by descending exclusive cycles (ties broken
  /// by enum order so the output is stable on cycle-free platforms).
  std::vector<std::size_t> subsystems_by_cycles() const;

  /// Accumulate another snapshot (per-trial ledgers -> sweep totals).
  /// Calibration fields are taken from whichever side has them.
  void merge(const ProfileSnapshot& other);
};

/// Per-trial profiler: construct one, `install()` on the thread that runs
/// the trial, and `snapshot()` afterwards. The guard restores the previous
/// ledger, so profiled and unprofiled trials interleave freely on sweep
/// worker threads.
class Profiler {
 public:
  Profiler() = default;

  prof::InstallGuard install() { return prof::InstallGuard(&ledger_); }
  prof::Ledger& ledger() { return ledger_; }
  ProfileSnapshot snapshot() const;

  /// Calibrated TSC frequency (cycles per second); 0 when the platform has
  /// no cycle counter. Measured once per process against steady_clock.
  static double cycles_per_second();
  /// Measured cost in cycles of one empty installed ScopeTimer.
  static double scope_cost_cycles();

 private:
  prof::Ledger ledger_;
};

/// Human-readable per-subsystem table: counts per phase, exclusive cycles,
/// cycles/op, share of total. Empty string when !snap.enabled.
std::string render_profile_table(const ProfileSnapshot& snap);

/// One line for quickstart / report footers: top-3 subsystems by cycles and
/// the estimated profiling overhead percentage.
std::string one_line_profile_summary(const ProfileSnapshot& snap);

/// Collapsed-stack format: `frame;frame;frame <exclusive-cycles>` per line,
/// sorted, suitable for flamegraph.pl or speedscope.
void write_collapsed_stacks(std::ostream& os, const ProfileSnapshot& snap);

}  // namespace softres::obs
