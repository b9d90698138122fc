#pragma once

// Shared scaffolding for the figure/table reproduction benches. Each bench
// prints the same rows/series the paper's evaluation reports, from freshly
// simulated trials. Absolute values come from the calibrated simulator;
// EXPERIMENTS.md records the paper-vs-measured comparison.

#include <iostream>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/experiment.h"
#include "exp/sweep.h"
#include "metrics/csv.h"
#include "metrics/table.h"
#include "obs/diagnoser.h"
#include "obs/tail.h"

namespace softres::bench {

/// Trial schedule for benches: compressed by default, the paper's 8 min /
/// 12 min schedule with SOFTRES_FULL=1. The compressed schedule is the base
/// that ExperimentOptions::from_env() overlays, so the environment switches
/// (SOFTRES_FULL, SOFTRES_TRACE_RATE, ...) are parsed and validated in
/// exactly one place. SOFTRES_CSV_DIR is checked here as well, so a missing
/// export directory stops the bench before its first trial.
inline exp::ExperimentOptions bench_options() {
  exp::ExperimentOptions quick;
  quick.client.ramp_up_s = 20.0;
  quick.client.runtime_s = 60.0;
  quick.client.ramp_down_s = 3.0;
  metrics::csv_dir_from_env();
  return exp::ExperimentOptions::from_env(quick);
}

inline exp::Experiment make_experiment(const std::string& hw) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig::parse(hw);
  return exp::Experiment(cfg, bench_options());
}

/// make_experiment with request tracing on, for benches whose acceptance
/// checks read the tail attribution. Tracing is zero-perturbation (see
/// trace_test), so the figure numbers are identical to the untraced bench.
/// The default rate of 1% spreads the 200-trace budget over the first ~20k
/// requests — the whole measurement window of a compressed trial — instead
/// of burning it on the ramp-up; SOFTRES_TRACE_RATE still wins when set.
inline exp::Experiment make_traced_experiment(const std::string& hw) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig::parse(hw);
  exp::ExperimentOptions opts = bench_options();
  if (opts.trace_sample_rate() <= 0.0) opts.set_trace_sample_rate(0.01);
  return exp::Experiment(cfg, opts);
}

inline void header(const std::string& title, const std::string& what) {
  std::cout << "==============================================================="
               "=\n"
            << title << "\n"
            << what << "\n"
            << "==============================================================="
               "=\n";
}

/// Drop a sweep as CSV when SOFTRES_CSV_DIR is set (plot-ready output).
inline void maybe_export_sweep(
    const std::string& name, const std::vector<std::size_t>& workloads,
    const std::vector<std::pair<std::string, std::vector<double>>>& columns) {
  const std::string dir = metrics::csv_dir_from_env();
  if (dir.empty()) return;
  std::vector<double> x(workloads.begin(), workloads.end());
  if (metrics::export_csv(dir, name, [&](std::ostream& os) {
        metrics::write_xy_csv(os, "workload", x, columns);
      })) {
    std::cout << "[csv] wrote " << dir << "/" << name << "\n";
  }
}

inline std::string pct_diff(double a, double b) {
  if (b <= 0.0) return "n/a";
  return metrics::Table::fmt(100.0 * (a - b) / b, 1) + "%";
}

/// Diagnoser acceptance check: the trial's online verdict must match `want`,
/// with at least one evidence window unless the expectation is healthy
/// (kNone). Prints one line either way and bumps `failures`, which the bench
/// returns as its exit code — the check is ctest-visible.
inline void expect_diagnosis(const exp::RunResult& r, obs::Pathology want,
                             const std::string& label, int& failures) {
  const obs::Diagnosis& d = r.diagnosis;
  bool ok = d.pathology == want;
  if (want != obs::Pathology::kNone && d.evidence.empty()) ok = false;
  std::cout << (ok ? "[diagnosis OK]   " : "[diagnosis FAIL] ") << label
            << ": " << d.summary() << "\n";
  if (!ok) {
    std::cout << "  expected " << obs::pathology_name(want)
              << (want == obs::Pathology::kNone
                      ? ""
                      : " with at least one evidence window")
              << "\n";
    ++failures;
  }
}

/// Tail-attribution acceptance check (ISSUE 10): the p99+ cohort's dominant
/// blame component must be `want_component` ("tomcat.queue", ...) and
/// obs::corroborate must have tied it onto one of the Diagnoser's implicated
/// resources — the "why is p99 slow" answer and the verdict must name the
/// same resource. Same exit-code contract as expect_diagnosis.
inline void expect_tail_blame(const exp::RunResult& r,
                              const std::string& want_component,
                              const std::string& label, int& failures) {
  const obs::TailAttribution::Cohort* p99 =
      r.tail.empty() ? nullptr : r.tail.find_cohort("p99+");
  std::string got = "<untraced>";
  bool ok = false;
  if (p99 != nullptr) {
    const std::size_t dom = r.tail.dominant_component(*p99);
    if (dom != obs::TailAttribution::npos) got = r.tail.axis[dom].label();
    ok = got == want_component && r.diagnosis.tail.present &&
         r.diagnosis.tail.corroborates;
  }
  std::cout << (ok ? "[tail OK]   " : "[tail FAIL] ") << label
            << ": p99+ dominant " << got;
  if (r.diagnosis.tail.present) std::cout << " — " << r.diagnosis.tail.text;
  std::cout << "\n";
  if (!ok) {
    std::cout << "  expected dominant component " << want_component
              << " corroborating the diagnosis\n";
    ++failures;
  }
}

/// Print the onset-workload summary of one sweep row (exp::pathology_onsets).
inline void print_onsets(const std::string& label,
                         const std::vector<exp::RunResult>& results) {
  const auto onsets = exp::pathology_onsets(results);
  std::cout << label << ": ";
  if (onsets.empty()) {
    std::cout << "healthy across the sweep\n";
    return;
  }
  for (const auto& o : onsets) {
    std::cout << obs::pathology_name(o.pathology) << " from " << o.onset_users
              << " users (" << o.trials << " trial(s), peak confidence "
              << metrics::Table::fmt(o.peak_confidence, 2) << ")  ";
  }
  std::cout << "\n";
}

}  // namespace softres::bench
