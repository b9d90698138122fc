#pragma once

// Layer probes of the span run: public calls of sim::Simulator, hw::Cpu and
// soft::Pool replayed in isolation at the depth the workload's own trials
// reported, the executor-scaling (USL) fit, and the tracing and profiling
// overhead of one representative trial.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workloads.h"

namespace softbench {

/// Median of `v`, the mean of the middle two for an even count; 0 if empty.
double median(std::vector<double> v);

/// ns per Simulator::step (pop + dispatch + one schedule) with `depth`
/// events pending.
double probe_sim_ns(std::size_t depth);
/// ns per job through Cpu::submit with `jobs` jobs in service.
double probe_cpu_ns(double jobs);
/// ns per Pool::release + Pool::acquire pair with `waiters` queued.
double probe_pool_ns(double waiters);

/// Gunther's Universal Scalability Law, X(N) = X(1) N / (1 + s(N-1) +
/// k N(N-1)), fitted by least squares to trials/s at N = 1..jobs, each the
/// median of three passes over the subset.
struct UslFit {
  std::size_t trials = 0;            // subset size
  std::vector<double> trials_per_s;  // [N-1]
  double sigma = 0.0;
  double kappa = 0.0;
  std::size_t mismatches = 0;  // digests that differ from the jobs=1 pass
};
UslFit fit_usl(const std::vector<TrialRef>& subset, std::size_t max_jobs);

/// Thread-CPU cost of one trial with request tracing at rate 0 vs 1.0, and
/// with ExperimentOptions::profile off vs on (medians of `reps` runs each).
struct Overheads {
  double trace_frac = 0.0;
  double profile_frac = 0.0;
  std::uint64_t link_msgs = 0;  // Link::send calls, from the profile counts
  bool profile_neutral = true;  // profiling left the results bit-identical
};
Overheads measure_overheads(const TrialRef& trial, std::size_t jobs,
                            std::size_t reps);

}  // namespace softbench
