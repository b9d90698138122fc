// Tests for the self-profiler (DESIGN.md §11): the prof::Ledger core, the
// obs::Profiler facade and its three export formats. The two load-bearing
// guarantees:
//  * zero perturbation — a profiled trial replays the identical event
//    sequence and produces bit-identical results (the ctest analogue of the
//    bench gate; tracing holds the same line in trace_test.cc);
//  * a sound count axis — deterministic per-subsystem counters that tie out
//    against the simulator's own event accounting.
// The timing axis (cycles) is machine-local by design; tests only check
// structural invariants (exclusive cycles, path table, formats), never
// absolute values, and degrade to the count axis on cycle-free platforms.

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/experiment.h"
#include "exp/testbed.h"
#include "obs/profiler.h"
#include "support/prof.h"

namespace softres {
namespace {

exp::TestbedConfig cheap_config() {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  // 10x demands so trials are cheap (same scaling as determinism_test).
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;
  return cfg;
}

exp::ExperimentOptions cheap_options() {
  exp::ExperimentOptions opts;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 15.0;
  opts.client.ramp_down_s = 2.0;
  return opts;
}

std::uint64_t count_of(const obs::ProfileSnapshot& snap,
                       prof::Subsystem sub) {
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    total += snap.counts[p][static_cast<std::size_t>(sub)];
  }
  return total;
}

/// One profiled standalone trial (the Testbed-level path tests use).
obs::ProfileSnapshot profiled_trial(std::uint64_t* events_executed = nullptr) {
  obs::Profiler profiler;
  {
    const prof::InstallGuard guard = profiler.install();
    SOFTRES_PROF_PHASE(kSetup);
    exp::TestbedConfig cfg = cheap_config();
    workload::ClientConfig client;
    client.users = 300;
    client.ramp_up_s = 5.0;
    client.runtime_s = 15.0;
    client.ramp_down_s = 2.0;
    exp::Testbed bed(cfg, client);
    bed.run();
    if (events_executed != nullptr) {
      *events_executed = bed.simulator().events_executed();
    }
  }
  return profiler.snapshot();
}

TEST(ProfilerTest, OffByDefaultAndZeroPerturbation) {
  const exp::SoftConfig soft{50, 10, 10};
  const exp::Experiment plain_e(cheap_config(), cheap_options());
  const exp::RunResult plain = plain_e.run(soft, 200);
  EXPECT_FALSE(plain.profile.enabled);

  exp::ExperimentOptions opts = cheap_options();
  opts.profile = true;
  const exp::Experiment prof_e(cheap_config(), opts);
  const exp::RunResult profiled = prof_e.run(soft, 200);
  ASSERT_TRUE(profiled.profile.enabled);
  EXPECT_GT(profiled.profile.total_counts(), 0u);

  // The instrumented run replays the identical simulation: every observable
  // a figure script reads is bit-identical, not merely close.
  EXPECT_EQ(plain.trial_seed, profiled.trial_seed);
  EXPECT_EQ(plain.throughput, profiled.throughput);
  ASSERT_EQ(plain.response_times.count(), profiled.response_times.count());
  EXPECT_EQ(plain.response_times.mean(), profiled.response_times.mean());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(plain.response_times.quantile(q),
              profiled.response_times.quantile(q));
  }
  ASSERT_EQ(plain.cpus.size(), profiled.cpus.size());
  for (std::size_t i = 0; i < plain.cpus.size(); ++i) {
    EXPECT_EQ(plain.cpus[i].util_pct, profiled.cpus[i].util_pct);
  }
  EXPECT_EQ(plain.diagnosis.pathology, profiled.diagnosis.pathology);
}

TEST(ProfilerTest, DispatchCountTiesOutAgainstSimulator) {
  std::uint64_t events = 0;
  const obs::ProfileSnapshot snap = profiled_trial(&events);
  ASSERT_TRUE(snap.enabled);
  ASSERT_GT(events, 0u);

  // Every dispatched event enters exactly one kDispatch scope.
  EXPECT_EQ(count_of(snap, prof::Subsystem::kDispatch), events);
  // Every dispatch popped its event from the queue first, and pushes must
  // cover everything that was ever popped.
  EXPECT_GE(count_of(snap, prof::Subsystem::kEventQueuePop), events);
  EXPECT_GE(count_of(snap, prof::Subsystem::kEventQueuePush),
            count_of(snap, prof::Subsystem::kEventQueuePop));

  // A loaded trial exercises every attributed subsystem.
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < prof::kPhases; ++p) total += snap.counts[p][s];
    EXPECT_GT(total, 0u) << prof::subsystem_name(
        static_cast<prof::Subsystem>(s));
  }
  // The phase marker advanced through the whole schedule: steady-state work
  // landed in the measurement window, setup work before the ramp.
  EXPECT_GT(snap.total_counts(prof::Phase::kMeasure), 0u);
  EXPECT_GT(snap.total_counts(prof::Phase::kRampUp), 0u);
}

TEST(ProfilerTest, SnapshotMergeAccumulatesCountsAndPaths) {
  const obs::ProfileSnapshot one = profiled_trial();
  obs::ProfileSnapshot two = one;
  two.merge(one);
  EXPECT_EQ(two.total_counts(), 2 * one.total_counts());
  EXPECT_EQ(two.total_cycles(), 2 * one.total_cycles());
  ASSERT_EQ(two.paths.size(), one.paths.size());
  for (std::size_t i = 0; i < one.paths.size(); ++i) {
    EXPECT_EQ(two.paths[i].frames, one.paths[i].frames);
    EXPECT_EQ(two.paths[i].count, 2 * one.paths[i].count);
  }
  // Merging a disabled snapshot is a no-op.
  obs::ProfileSnapshot three = one;
  three.merge(obs::ProfileSnapshot{});
  EXPECT_EQ(three.total_counts(), one.total_counts());
}

TEST(ProfilerTest, CollapsedStackFormatIsWellFormed) {
  const obs::ProfileSnapshot snap = profiled_trial();
  std::ostringstream os;
  obs::write_collapsed_stacks(os, snap);
  const std::string text = os.str();
  if (snap.total_cycles() == 0) {
    // No cycle counter on this platform: nothing to fold, and that must be
    // an empty file rather than zero-weight junk lines.
    EXPECT_TRUE(text.empty());
    return;
  }
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    // `frame;frame;frame <cycles>` — frames are known subsystem names.
    const std::size_t space = line.find_last_of(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string weight = line.substr(space + 1);
    ASSERT_FALSE(weight.empty()) << line;
    for (char c : weight) EXPECT_TRUE(std::isdigit(c)) << line;
    EXPECT_NE(weight, "0") << line;
    std::istringstream frames(line.substr(0, space));
    std::string frame;
    int depth = 0;
    while (std::getline(frames, frame, ';')) {
      ++depth;
      bool known = false;
      for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
        if (frame == prof::subsystem_name(static_cast<prof::Subsystem>(s))) {
          known = true;
          break;
        }
      }
      EXPECT_TRUE(known) << "unknown frame '" << frame << "' in: " << line;
    }
    EXPECT_GE(depth, 1) << line;
    EXPECT_LE(depth, static_cast<int>(prof::Ledger::kPathDepth)) << line;
  }
}

TEST(ProfilerTest, RenderersEmitNothingWhenDisabled) {
  const obs::ProfileSnapshot off;
  EXPECT_TRUE(obs::render_profile_table(off).empty());
  EXPECT_TRUE(obs::one_line_profile_summary(off).empty());
  std::ostringstream os;
  obs::write_collapsed_stacks(os, off);
  EXPECT_TRUE(os.str().empty());
}

TEST(ProfilerTest, TableAndSummaryCarryTheAttribution) {
  const obs::ProfileSnapshot snap = profiled_trial();

  const std::string table = obs::render_profile_table(snap);
  EXPECT_NE(table.find("subsystem"), std::string::npos);
  EXPECT_NE(table.find("dispatch"), std::string::npos);
  EXPECT_NE(table.find("event_queue_push"), std::string::npos);

  const std::string line = obs::one_line_profile_summary(snap);
  EXPECT_NE(line.find("profile:"), std::string::npos);
  EXPECT_NE(line.find("overhead"), std::string::npos);

  const double overhead = snap.overhead_fraction();
  EXPECT_GE(overhead, 0.0);
  EXPECT_LE(overhead, 1.0);
}

TEST(ProfilerTest, ScopeTimerCreditsExclusiveCyclesToParentAndChild) {
  // Hand-built nesting on a scratch ledger: parent's exclusive cycles must
  // exclude the child's, and the path table must key parent and child
  // separately (child's path carries the parent frame as its prefix).
  prof::Ledger ledger;
  {
    const prof::InstallGuard guard(&ledger);
    const prof::ScopeTimer parent(prof::Subsystem::kDispatch);
    for (int i = 0; i < 64; ++i) {
      const prof::ScopeTimer child(prof::Subsystem::kDistSample);
    }
  }
  EXPECT_EQ(ledger.counts[0][static_cast<std::size_t>(
                prof::Subsystem::kDispatch)],
            1u);
  EXPECT_EQ(ledger.counts[0][static_cast<std::size_t>(
                prof::Subsystem::kDistSample)],
            64u);
  EXPECT_EQ(ledger.depth, 0u);

  const std::uint64_t dispatch_key =
      static_cast<std::uint64_t>(
          static_cast<std::uint8_t>(prof::Subsystem::kDispatch)) +
      1;
  const std::uint64_t nested_key =
      dispatch_key |
      ((static_cast<std::uint64_t>(
            static_cast<std::uint8_t>(prof::Subsystem::kDistSample)) +
        1)
       << 8);
  std::uint64_t parent_count = 0, child_count = 0;
  for (const auto& cell : ledger.paths) {
    if (cell.key == dispatch_key) parent_count = cell.count;
    if (cell.key == nested_key) child_count = cell.count;
  }
  EXPECT_EQ(parent_count, 1u);
  EXPECT_EQ(child_count, 64u);
}

}  // namespace
}  // namespace softres
