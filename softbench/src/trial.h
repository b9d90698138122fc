#pragma once

// The span run's view of one trial. run_trial() performs what
// exp::Experiment::run does, call for call through the public API, with a
// host-time span around each layer boundary (context + testbed build,
// Testbed::run, each post-run condense call) and the module counters read
// off the finished testbed. Its RunResult must digest identically to
// Experiment::run's; the span run checks that on every trial.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace softbench {

/// One recorded span. Spans of one trial share `trial`; `parent` is the id
/// of the enclosing span (0 = root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trial = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store, written out once when the benchmark ends.
class SpanLog {
 public:
  std::uint64_t next_id();
  void add(const Span& s);
  void add(const std::vector<Span>& spans);
  /// JSON lines, one span per line; false when the file cannot be written.
  bool write(const std::string& path) const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t next_ = 1;  // guarded by mu_
  std::vector<Span> spans_;  // guarded by mu_
};

/// Counts and host timings of one trial of the span run.
struct TrialStats {
  std::int64_t start_ns = 0, end_ns = 0;
  double build_ms = 0, run_ms = 0, condense_ms = 0;
  double snapshot_ms = 0, attribute_ms = 0;

  std::uint64_t events = 0;          // Simulator::events_executed, probe excluded
  std::uint64_t cpu_jobs = 0;        // sum of Cpu::jobs_completed
  std::uint64_t gc_collections = 0;  // sum of Jvm::collections
  std::uint64_t acquires = 0;        // sum of Pool::total_acquired
  std::uint64_t drained = 0;         // sum of Pool::drained_total
  std::uint64_t pages = 0;           // ClientFarm::pages_started
  std::uint64_t traced = 0;          // TraceCollector::size
  std::uint64_t resizes = 0;         // RunResult::governor_actions
  std::uint64_t completed[4] = {};   // Server::window_completed per tier
  std::uint64_t setup_allocs = 0, steady_allocs = 0;

  // 1 Hz simulated-time depth probe.
  std::uint64_t depth_samples = 0;
  double pending_sum = 0;
  std::size_t pending_max = 0;
  double cpu_jobs_sq = 0, cpu_jobs_sum = 0;  // job-weighted CPU run-queue depth
  double waiters_sq = 0, waiters_sum = 0;    // waiter-weighted pool queue depth

  double trial_ms() const { return 1e-6 * static_cast<double>(end_ns - start_ns); }
};

inline constexpr const char* kTierNames[4] = {"apache", "tomcat", "cjdbc",
                                              "mysql"};

/// Experiment::run(soft, users) with spans and counters. `stats` and `log`
/// may be null (then it only mirrors the call sequence); `parent` is the
/// span id the trial's root span hangs off.
softres::exp::RunResult run_trial(const softres::exp::Experiment& e,
                                  const softres::exp::SoftConfig& soft,
                                  std::size_t users, TrialStats* stats,
                                  SpanLog* log, std::uint64_t parent);

/// Host time from `t0_ns` to the moment the trial's Testbed::run would
/// start: the set-up half of run_trial, without running the trial.
double time_to_first_run(const softres::exp::Experiment& e,
                         const softres::exp::SoftConfig& soft,
                         std::size_t users, std::int64_t t0_ns);

}  // namespace softbench
