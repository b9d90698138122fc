// Autotune: run the paper's three-procedure soft-resource allocation
// algorithm (Section IV, Algorithm 1) against a simulated hardware
// configuration and print the Table-I style report.
//
// Usage: autotune [hw e.g. 1/2/1/2] [slo_threshold_s]

#include <iostream>

#include "cli_args.h"
#include "core/allocation.h"
#include "exp/config.h"
#include "exp/runner_adapter.h"
#include "metrics/table.h"

using namespace softres;

int main(int argc, char** argv) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = argc > 1 ? exp::HardwareConfig::parse(argv[1])
                    : exp::HardwareConfig{1, 2, 1, 2};
  const cli::Usage usage{"autotune", "[hw e.g. 1/2/1/2] [slo_threshold_s]"};
  const double slo =
      argc > 2 ? cli::positive_arg(usage, "slo_threshold_s", argv[2]) : 1.0;

  exp::Experiment experiment(cfg, exp::ExperimentOptions::from_env());
  exp::RunnerAdapter runner(experiment, slo);

  core::AlgorithmConfig acfg;
  core::AllocationAlgorithm algorithm(runner, acfg);

  std::cout << "Tuning soft resources for hardware " << cfg.hw.to_string()
            << " (SLO threshold " << slo << " s)\n\n";

  const core::AllocationReport report = algorithm.run();

  std::cout << "status: " << core::to_string(report.status) << "\n";
  std::cout << "experiments run: " << report.experiments_run << "\n";
  std::cout << "critical resource: " << report.critical.critical_resource
            << "  (tier " << core::tier_name(report.critical.critical_tier)
            << ", exposed with allocation "
            << report.critical.reserve.to_string() << ")\n";
  std::cout << "saturation workload: " << report.min_jobs.saturation_workload
            << " users  (throughput "
            << metrics::Table::fmt(report.min_jobs.saturation_throughput, 1)
            << " req/s)\n";
  std::cout << "critical server: RTT = "
            << metrics::Table::fmt(report.min_jobs.critical_rtt_s * 1000.0, 2)
            << " ms, TP = "
            << metrics::Table::fmt(report.min_jobs.critical_throughput, 1)
            << " req/s  ->  min concurrent jobs = "
            << report.min_jobs.min_jobs << "\n";
  std::cout << "Req_ratio (queries/request): "
            << metrics::Table::fmt(report.req_ratio, 2) << "\n\n";

  metrics::Table table(
      {"tier", "servers", "RTT_ms", "TP", "avg_jobs", "pool/server",
       "pool_total"});
  for (const auto& row : report.rows) {
    table.add_row({core::tier_name(row.tier), std::to_string(row.servers),
                   metrics::Table::fmt(row.rtt_s * 1000.0, 2),
                   metrics::Table::fmt(row.throughput, 1),
                   metrics::Table::fmt(row.avg_jobs, 1),
                   std::to_string(row.pool_per_server),
                   std::to_string(row.pool_total)});
  }
  table.print(std::cout);

  std::cout << "\nrecommended soft allocation (#Wt-#At-#Ac): "
            << report.recommended.to_string() << "\n";
  return report.status == core::AlgorithmStatus::kOk ? 0 : 1;
}
