// Ablation: static allocations vs the closed-loop core::Governor on an
// elastic workload. Compares three static policies (conservative, liberal,
// Algorithm-1-at-steady-state) against runtime adaptation across a steady ->
// peak -> trough profile, scoring SLA goodput and revenue.
//
// Acceptance: the governed run from each extreme must beat that extreme's
// static goodput@1s. The exit code is the number of failed checks, so the
// bench doubles as a ctest (bench_ablation_adaptive_acceptance).

#include <utility>

#include "bench_util.h"
#include "exp/run_context.h"
#include "exp/testbed.h"
#include "metrics/sla.h"

using namespace softres;

namespace {

struct Trial {
  const char* name;
  exp::SoftConfig soft;
  bool governed;
};

struct Outcome {
  metrics::SlaSplit split;
  double mean_rt_ms;
  std::size_t resizes;
};

Outcome run_trial(const Trial& trial) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig{1, 4, 1, 4};
  cfg.soft = trial.soft;
  workload::ClientConfig client;
  client.users = 7200;
  client.ramp_up_s = 20.0;
  client.runtime_s = 200.0;
  client.ramp_down_s = 3.0;
  // The governor is not part of the trial seed: governed and static trials
  // of one allocation replay the same random streams.
  core::GovernorConfig gov;
  gov.enabled = trial.governed;
  exp::RunContext ctx(client.seed, cfg, client.users, gov);
  exp::Testbed bed(ctx, cfg, client);
  bed.farm().set_load_schedule({
      {0.0, 2500},
      {70.0, 7200},
      {150.0, 4000},
  });
  bed.run();
  return Outcome{metrics::SlaModel(1.0).split(bed.farm().response_times(),
                                              client.runtime_s),
                 bed.farm().response_times().mean() * 1000.0,
                 bed.governor() ? bed.governor()->actions().size() : 0};
}

}  // namespace

int main() {
  bench::header("Ablation: static vs governed allocation, elastic workload",
                "1/4/1/4, profile 2500 -> 7200 -> 4000 users, SLO 1 s");

  enum { kConservative, kLiberal, kTuned, kGovLiberal, kGovConservative };
  const std::vector<Trial> trials = {
      {"conservative static", exp::SoftConfig{30, 2, 2}, false},
      {"liberal static", exp::SoftConfig{400, 200, 200}, false},
      {"tuned-for-steady static", exp::SoftConfig{90, 15, 13}, false},
      {"governed from liberal", exp::SoftConfig{400, 200, 200}, true},
      {"governed from conservative", exp::SoftConfig{30, 2, 2}, true},
  };

  const metrics::RevenueModel revenue{1.0, 2.0};
  metrics::Table t({"policy", "goodput@1s", "badput@1s", "revenue/s",
                    "mean RT ms", "resizes"});
  std::vector<Outcome> outcomes;
  for (const auto& trial : trials) {
    const Outcome o = run_trial(trial);
    t.add_row({trial.name, metrics::Table::fmt(o.split.goodput, 1),
               metrics::Table::fmt(o.split.badput, 1),
               metrics::Table::fmt(revenue.revenue(o.split, 1.0), 1),
               metrics::Table::fmt(o.mean_rt_ms, 1),
               std::to_string(o.resizes)});
    outcomes.push_back(o);
  }
  t.print(std::cout);

  std::cout << "\nexpectation: every static point is wrong somewhere on the "
               "profile (the paper's core argument for adaptivity); the "
               "governor converges to competitive allocations from either "
               "extreme\n";

  int failures = 0;
  for (const auto& [governed, fixed] :
       {std::pair{kGovLiberal, kLiberal},
        std::pair{kGovConservative, kConservative}}) {
    const double g = outcomes[governed].split.goodput;
    const double s = outcomes[fixed].split.goodput;
    if (g > s) {
      std::cout << "[ablation OK]   " << trials[governed].name
                << " beats " << trials[fixed].name << " ("
                << metrics::Table::fmt(g, 1) << " > "
                << metrics::Table::fmt(s, 1) << " req/s)\n";
    } else {
      std::cout << "[ablation FAIL] " << trials[governed].name << " "
                << metrics::Table::fmt(g, 1) << " <= " << trials[fixed].name
                << " " << metrics::Table::fmt(s, 1) << " req/s\n";
      ++failures;
    }
  }
  return failures;
}
