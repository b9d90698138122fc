// Multi-tenant walkthrough: two tenants ("gold" and "silver") share one
// 1/2/1/2 testbed whose app-tier thread pools are deliberately starved, so
// the pools — not the hardware — decide who meets its SLA. The example runs
// the same arrival sequence under each partition strategy, honestly and
// with gold misreporting its demand, and prints the per-tenant SLA split,
// Jain's fairness index and the liar's gain — the strategy-proofness story
// of DESIGN.md §14.
//
// Usage: multi_tenant [misreport_factor, default 8]

#include <iostream>

#include "cli_args.h"
#include "exp/config.h"
#include "exp/experiment.h"
#include "exp/sweep.h"
#include "metrics/table.h"
#include "soft/partition.h"

using namespace softres;

int main(int argc, char** argv) {
  const cli::Usage usage{"multi_tenant", "[misreport_factor, default 8]"};
  const double misreport =
      argc > 1 ? cli::positive_arg(usage, "misreport_factor", argv[1]) : 8.0;

  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  // Inflate per-request demands 10x so a 4-thread Tomcat pool saturates at
  // a small (fast-to-simulate) user count.
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;

  exp::ExperimentOptions opts;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 40.0;
  opts.client.ramp_down_s = 2.0;
  opts.client.think_time_mean_s = 1.0;

  exp::TenantScenario scenario;
  workload::TenantSpec gold;
  gold.name = "gold";
  gold.users = 120;
  workload::TenantSpec silver;
  silver.name = "silver";
  silver.users = 120;
  scenario.tenants = {gold, silver};
  scenario.greedy_tenant = 0;
  scenario.misreport_factor = misreport;

  const std::vector<soft::ShareStrategy> strategies = {
      soft::ShareStrategy::kStaticSplit,
      soft::ShareStrategy::kWorkConserving,
      soft::ShareStrategy::kKarmaCredits,
  };

  std::cout << "2 tenants x 120 users on 1/2/1/2 at 200-4-8, gold "
               "misreporting " << misreport << "x when greedy\n\n";
  const exp::Experiment e(cfg, opts);
  const exp::TenantSweepReport report = exp::tenant_sweep(
      e, exp::SoftConfig{200, 4, 8}, scenario, strategies);

  metrics::Table t({"strategy", "run", "gold good/bad", "silver good/bad",
                    "Jain"});
  for (const exp::TenantStrategyOutcome& o : report.outcomes) {
    const char* name = soft::share_strategy_name(o.strategy);
    auto row = [&](const char* run, const exp::RunResult& r, double jain) {
      const exp::TenantStat* g = r.find_tenant("gold");
      const exp::TenantStat* s = r.find_tenant("silver");
      t.add_row({name, run,
                 metrics::Table::fmt(g ? g->goodput : 0.0, 1) + " / " +
                     metrics::Table::fmt(g ? g->badput : 0.0, 1),
                 metrics::Table::fmt(s ? s->goodput : 0.0, 1) + " / " +
                     metrics::Table::fmt(s ? s->badput : 0.0, 1),
                 metrics::Table::fmt(jain, 3)});
    };
    row("honest", o.honest, o.honest_jain);
    row("greedy", o.greedy, o.greedy_jain);
  }
  t.print(std::cout);

  std::cout << "\nliar gain per strategy:";
  for (const exp::TenantStrategyOutcome& o : report.outcomes) {
    std::cout << "  " << soft::share_strategy_name(o.strategy) << " "
              << metrics::Table::fmt(o.greedy_gain_pct(), 1) << "%";
  }
  std::cout << "\n\n";

  const exp::TenantStrategyOutcome* wc =
      report.find(soft::ShareStrategy::kWorkConserving);
  if (wc != nullptr) {
    std::cout << "work-conserving greedy verdict: "
              << wc->greedy.diagnosis.summary() << "\n\n";
  }
  std::cout << "Static split isolates but strands idle units; "
               "work-conserving shares are efficient but pay whoever "
               "inflates reported demand; Karma credits stay "
               "work-conserving while pricing bursts in credits earned at "
               "entitlement — lying buys nothing.\n";
  return 0;
}
