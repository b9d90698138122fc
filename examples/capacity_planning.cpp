// Capacity planning: sweep workload on a hardware configuration, locate the
// knee with intervention analysis, and report what saturates first — the
// workflow an operator runs before committing to an SLA.
//
// Usage: capacity_planning [hw e.g. 1/2/1/2] [soft e.g. 400-15-60]
//                          [max_workload] [sla_threshold_s] [base_seed]
//
// base_seed (also SOFTRES_SEED) feeds RunContext::derive_seed — the only
// sanctioned way to re-seed a run. Per-trial streams are hashed from
// (base_seed, topology, soft config, users), so the same plan is
// bit-reproducible at any SOFTRES_JOBS level.

#include <iostream>

#include "cli_args.h"
#include "core/intervention.h"
#include "core/ops_laws.h"
#include "exp/experiment.h"
#include "exp/sweep.h"
#include "metrics/table.h"

using namespace softres;

int main(int argc, char** argv) {
  const cli::Usage usage{"capacity_planning",
                         "[hw e.g. 1/2/1/2] [soft e.g. 400-15-60] "
                         "[max_workload] [sla_threshold_s] [base_seed]"};
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = argc > 1 ? exp::HardwareConfig::parse(argv[1])
                    : exp::HardwareConfig{1, 2, 1, 2};
  const exp::SoftConfig soft = argc > 2 ? exp::SoftConfig::parse(argv[2])
                                        : exp::SoftConfig{400, 15, 60};
  const std::size_t max_wl =
      argc > 3 ? cli::count_arg(usage, "max_workload", argv[3]) : 7000;
  const double threshold =
      argc > 4 ? cli::positive_arg(usage, "sla_threshold_s", argv[4]) : 1.0;

  exp::ExperimentOptions opts = exp::ExperimentOptions::from_env();
  if (argc > 5) opts.client.seed = cli::u64_arg(usage, "base_seed", argv[5]);
  exp::Experiment experiment(cfg, opts);
  const auto workloads = exp::workload_range(1000, max_wl, 500);

  std::cout << "Capacity plan for " << cfg.hw.to_string() << " with "
            << soft.to_string() << " (SLO " << threshold << " s)\n"
            << "base seed " << opts.client.seed << "; trial streams derive "
            << "from it per (topology, allocation, users)\n\n";

  metrics::Table t({"users", "throughput", "goodput", "satisfaction",
                    "mean RT ms", "saturated"});
  // The whole plan sweeps in parallel (SOFTRES_JOBS to override), then the
  // knee analysis below reads the results in workload order.
  std::vector<exp::RunResult> results =
      exp::sweep_workload(experiment, soft, workloads);
  std::vector<double> satisfaction;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const exp::RunResult& r = results[i];
    const auto split = r.sla(threshold);
    satisfaction.push_back(split.satisfaction());
    std::string sat;
    for (const auto& name : r.saturated_hardware()) sat += name + " ";
    for (const auto& name : r.saturated_soft()) sat += name + " ";
    t.add_row({std::to_string(workloads[i]),
               metrics::Table::fmt(r.throughput, 1),
               metrics::Table::fmt(split.goodput, 1),
               metrics::Table::fmt(split.satisfaction(), 3),
               metrics::Table::fmt(r.response_times.mean() * 1000.0, 1),
               sat.empty() ? "-" : sat});
  }
  t.print(std::cout);

  const core::InterventionResult ia =
      core::intervention_analysis(satisfaction);
  const std::size_t knee_idx =
      std::min(ia.last_stable_index, workloads.size() - 1);
  const exp::RunResult& knee = results[knee_idx];
  std::cout << "\nknee (intervention analysis): " << workloads[knee_idx]
            << " users at " << metrics::Table::fmt(knee.throughput, 1)
            << " req/s\n";
  std::cout << "mean think-time-adjusted residence at the knee: "
            << metrics::Table::fmt(
                   1000.0 * core::interactive_rt(workloads[knee_idx],
                                                 knee.throughput, 7.0),
                   1)
            << " ms (interactive response time law)\n";
  return 0;
}
