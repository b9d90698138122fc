#pragma once

// The three benchmark workloads. Each is a fixed batch of simulated trials
// built from the base seed alone, run through the repository's public entry
// points (exp::sweep_grid, exp::RunnerAdapter + core::AllocationAlgorithm,
// exp::governed_sweep) on exp::ParallelExecutor.
// The span run executes the same trials through run_trial() instead, with a
// span around every trial, batch and Algorithm 1 round.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "digest.h"
#include "exp/experiment.h"
#include "trial.h"

namespace softbench {

/// An acceptance check over the digest-locked results. Ungated checks are
/// printed but only count as failures at the default seed, where the
/// results are locked to the goldens.
struct Check {
  std::string name;
  bool ok = false;
  bool any_seed = false;  // an exact law that must hold at every seed
  std::string detail;
};

/// One trial of a workload, by identity.
struct TrialRef {
  softres::exp::Experiment exp;
  softres::exp::SoftConfig soft;
  std::size_t users = 0;
  std::string label;
};

/// Everything the span run gathers: spans, per-trial stats, executor
/// batches and Algorithm 1 rounds.
struct SpanRun {
  std::size_t jobs = 1;
  SpanLog log;
  std::vector<TrialStats> trials;
  std::vector<double> batch_longest_ms;  // longest trial of each batch
  std::uint64_t parent = 0;  // span id the next executor batch hangs off
  std::size_t core_batches = 0;
  double core_alg_ms = 0;        // sum of AllocationAlgorithm::run
  double core_run_batch_ms = 0;  // sum of ExperimentRunner::run_batch
};

/// SLO of the tune_loop scenarios (Table I and the flash crowd), seconds.
inline constexpr double kTuneSlo = 1.0;

/// How to re-run one recorded trial on its own: the trial, and whether its
/// record digests the core::Observation view Algorithm 1 sees.
struct Replay {
  TrialRef trial;
  bool observation = false;
};

/// The digest `rp`'s record carries, recomputed on the calling thread:
/// through exp::Experiment::run, or through run_trial when `stats` is set.
std::uint64_t replay_digest(const Replay& rp, TrialStats* stats);

/// One execution of a workload's batch.
struct Outcome {
  std::vector<Record> records;  // digests, in execution order
  /// replay[i] re-runs records[i]; empty where a record is not one trial.
  std::vector<std::optional<Replay>> replay;
  std::size_t trials = 0;  // simulated trials executed (speculative included)
  double wall_s = 0;       // host wall time of the batch
  double cpu_s = 0;        // process CPU time of the batch, all threads
  std::vector<Check> checks;
  std::vector<std::string> accuracy;  // paper reference vs simulated values
  std::size_t core_runs = 0;          // RunnerAdapter::runs (tune_loop)
  std::size_t core_consumed = 0;      // AllocationAlgorithm::experiments_run
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Run the batch on `jobs` executor threads; spanned when `spans` is set.
  virtual Outcome run(std::size_t jobs, SpanRun* spans) const = 0;
  /// The first trial the batch builds (what set-up time runs up to).
  virtual TrialRef first_trial() const = 0;
  /// A trial of the batch for the tracing and profiling overhead probes.
  virtual TrialRef probe_trial() const = 0;
};

/// The executor-scaling (USL) subset of paper_grid: the first lcm(1..max_jobs)
/// Fig 4 trials taken workload by workload across every pool (12 for four
/// jobs: 4600-5400 users), at most all 24.
std::vector<TrialRef> scaling_subset(std::uint64_t seed, std::size_t max_jobs);

/// Base seed the goldens are recorded at (workload::ClientConfig's default).
std::uint64_t default_seed();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace softbench
