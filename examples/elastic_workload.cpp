// Elastic workload: replay a bursty load profile (steady -> peak -> trough)
// against a statically allocated testbed and against the same testbed with
// the closed-loop core::Governor adjusting pool sizes online. Internet-scale
// workloads have peak loads several times the steady state (paper, Section
// I); static allocations tuned for one point are sub-optimal elsewhere.
//
// Usage: elastic_workload [static soft e.g. 400-200-200]

#include <cstdlib>
#include <iostream>

#include "exp/config.h"
#include "exp/run_context.h"
#include "exp/testbed.h"
#include "metrics/sla.h"
#include "metrics/table.h"

using namespace softres;

namespace {

std::vector<workload::LoadPhase> bursty_profile() {
  return {
      {0.0, 2500},    // steady state
      {80.0, 7000},   // flash-crowd peak
      {160.0, 4000},  // settle
  };
}

struct Outcome {
  double goodput;
  double badput;
  double mean_rt_ms;
  std::size_t resizes;
};

Outcome run_trial(const exp::SoftConfig& soft, bool governed) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig{1, 4, 1, 4};
  cfg.soft = soft;
  workload::ClientConfig client;
  client.users = 7000;  // slot pool sized for the peak
  client.ramp_up_s = 20.0;
  client.runtime_s = 220.0;
  client.ramp_down_s = 3.0;
  // The governor is not part of the trial seed, so both modes replay the
  // same random streams and differ only by control.
  core::GovernorConfig gov;
  gov.enabled = governed;
  exp::RunContext ctx(client.seed, cfg, client.users, gov);
  exp::Testbed bed(ctx, cfg, client);
  bed.farm().set_load_schedule(bursty_profile());
  bed.run();

  const metrics::SlaSplit split = metrics::SlaModel(1.0).split(
      bed.farm().response_times(), client.runtime_s);
  return Outcome{split.goodput, split.badput,
                 bed.farm().response_times().mean() * 1000.0,
                 bed.governor() ? bed.governor()->actions().size() : 0};
}

}  // namespace

int main(int argc, char** argv) {
  const exp::SoftConfig soft = argc > 1 ? exp::SoftConfig::parse(argv[1])
                                        : exp::SoftConfig{400, 200, 200};

  std::cout << "Bursty profile on 1/4/1/4: 2500 -> 7000 -> 4000 users\n\n";
  metrics::Table t({"mode", "goodput@1s", "badput@1s", "mean RT ms",
                    "pool resizes"});
  const Outcome fixed = run_trial(soft, /*governed=*/false);
  t.add_row({"static " + soft.to_string(),
             metrics::Table::fmt(fixed.goodput, 1),
             metrics::Table::fmt(fixed.badput, 1),
             metrics::Table::fmt(fixed.mean_rt_ms, 1), "0"});
  const Outcome governed = run_trial(soft, /*governed=*/true);
  t.add_row({"governed (same start)",
             metrics::Table::fmt(governed.goodput, 1),
             metrics::Table::fmt(governed.badput, 1),
             metrics::Table::fmt(governed.mean_rt_ms, 1),
             std::to_string(governed.resizes)});
  t.print(std::cout);

  std::cout << "\nThe governor shrinks over-allocated pools (cutting the "
               "JVM/GC tax near the peak) and grows starved ones, tracking "
               "the profile without operator input.\n";
  return 0;
}
