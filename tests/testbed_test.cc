#include "exp/testbed.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "exp/experiment.h"

namespace softres::exp {
namespace {

workload::ClientConfig quick_client(std::size_t users) {
  workload::ClientConfig c;
  c.users = users;
  c.ramp_up_s = 5.0;
  c.runtime_s = 20.0;
  c.ramp_down_s = 2.0;
  return c;
}

TEST(TestbedTest, BuildsRequestedTopology) {
  TestbedConfig cfg = TestbedConfig::defaults();
  cfg.hw = HardwareConfig::parse("1/4/1/4");
  Testbed bed(cfg, quick_client(100));
  EXPECT_EQ(bed.apaches().size(), 1u);
  EXPECT_EQ(bed.tomcats().size(), 4u);
  EXPECT_EQ(bed.cjdbcs().size(), 1u);
  EXPECT_EQ(bed.mysqls().size(), 4u);
  EXPECT_EQ(bed.nodes().size(), 10u);
}

TEST(TestbedTest, SoftConfigAppliedToPools) {
  TestbedConfig cfg = TestbedConfig::defaults();
  cfg.soft = SoftConfig{123, 45, 7};
  Testbed bed(cfg, quick_client(100));
  EXPECT_EQ(bed.apaches()[0]->worker_pool().capacity(), 123u);
  EXPECT_EQ(bed.tomcats()[0]->thread_pool().capacity(), 45u);
  EXPECT_EQ(bed.tomcats()[0]->connection_pool().capacity(), 7u);
  // One C-JDBC thread per upstream connection: 2 tomcats x 7 conns.
  EXPECT_EQ(bed.cjdbcs()[0]->jvm().live_threads(), 14u);
}

TEST(TestbedTest, RunProducesTraffic) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(300));
  bed.run();
  EXPECT_GT(bed.farm().response_times().count(), 100u);
  EXPECT_GT(bed.farm().window_throughput(), 10.0);
  // All tiers saw work.
  for (const auto& t : bed.tomcats()) EXPECT_GT(t->window_completed(), 0u);
  for (const auto& m : bed.mysqls()) EXPECT_GT(m->window_completed(), 0u);
}

TEST(TestbedTest, DeterministicAcrossRebuilds) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed a(cfg, quick_client(200));
  a.run();
  Testbed b(cfg, quick_client(200));
  b.run();
  EXPECT_EQ(a.farm().response_times().count(),
            b.farm().response_times().count());
  EXPECT_DOUBLE_EQ(a.farm().response_times().mean(),
                   b.farm().response_times().mean());
}

TEST(TestbedTest, SeedChangesTrajectory) {
  TestbedConfig cfg = TestbedConfig::defaults();
  workload::ClientConfig c1 = quick_client(200);
  workload::ClientConfig c2 = quick_client(200);
  c2.seed = 777;
  Testbed a(cfg, c1);
  a.run();
  Testbed b(cfg, c2);
  b.run();
  EXPECT_NE(a.farm().response_times().mean(),
            b.farm().response_times().mean());
}

TEST(TestbedTest, SamplerRecordsCpuSeries) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(300));
  bed.run();
  const sim::TimeSeries* s = bed.sampler().find("tomcat0.cpu");
  ASSERT_NE(s, nullptr);
  EXPECT_GT(s->size(), 20u);
  EXPECT_GT(s->mean_between(bed.measure_start(), bed.measure_end()), 0.0);
}

TEST(ExperimentTest, RunResultConservation) {
  TestbedConfig cfg = TestbedConfig::defaults();
  ExperimentOptions opts;
  opts.client = quick_client(300);
  Experiment e(cfg, opts);
  const RunResult r = e.run(SoftConfig{100, 20, 20}, 300);

  // goodput + badput == throughput at any threshold.
  for (double thr : {0.2, 0.5, 1.0, 2.0}) {
    const auto s = r.sla(thr);
    EXPECT_NEAR(s.goodput + s.badput, r.throughput, 1e-9);
  }
  // Goodput monotone in threshold.
  EXPECT_LE(r.goodput(0.5), r.goodput(1.0));
  EXPECT_LE(r.goodput(1.0), r.goodput(2.0));
  // Structure filled in.
  EXPECT_EQ(r.cpus.size(), 6u);   // 1+2+1+2 nodes
  EXPECT_EQ(r.pools.size(), 5u);  // apache workers + 2x(threads+conns)
  EXPECT_EQ(r.servers.size(), 6u);
  EXPECT_GT(r.req_ratio, 1.0);
  EXPECT_NE(r.find_cpu("tomcat0.cpu"), nullptr);
  EXPECT_NE(r.find_server("cjdbc0"), nullptr);
  EXPECT_NE(r.find_pool("tomcat1.dbconns"), nullptr);
  EXPECT_EQ(r.find_cpu("nope"), nullptr);
}

TEST(ExperimentTest, ForcedFlowLawAcrossTiers) {
  // Tier throughputs must satisfy the Forced Flow Law: X_mysql ~=
  // X_client * req_ratio, X_apache ~= X_client * 3 (page + 2 statics).
  TestbedConfig cfg = TestbedConfig::defaults();
  ExperimentOptions opts;
  opts.client = quick_client(400);
  Experiment e(cfg, opts);
  const RunResult r = e.run(SoftConfig{200, 50, 50}, 400);
  double mysql_tp = 0.0;
  for (const auto& s : r.servers) {
    if (s.name.rfind("mysql", 0) == 0) mysql_tp += s.throughput;
  }
  EXPECT_NEAR(mysql_tp, r.throughput * r.req_ratio,
              0.1 * mysql_tp + 1.0);
  const ServerOps* apache = r.find_server("apache0");
  ASSERT_NE(apache, nullptr);
  EXPECT_NEAR(apache->throughput, r.throughput * 3.0,
              0.1 * apache->throughput + 1.0);
}

TEST(ExperimentTest, LowWorkloadNothingSaturated) {
  TestbedConfig cfg = TestbedConfig::defaults();
  ExperimentOptions opts;
  opts.client = quick_client(200);
  Experiment e(cfg, opts);
  const RunResult r = e.run(SoftConfig{200, 50, 50}, 200);
  EXPECT_TRUE(r.saturated_hardware().empty());
  EXPECT_TRUE(r.saturated_soft().empty());
}

TEST(ExperimentTest, TinyThreadPoolSaturatesSoftNotHardware) {
  TestbedConfig cfg = TestbedConfig::defaults();
  ExperimentOptions opts;
  opts.client = quick_client(1500);
  Experiment e(cfg, opts);
  // 1 thread per Tomcat: blatant soft bottleneck at moderate workload.
  const RunResult r = e.run(SoftConfig{200, 1, 20}, 1500);
  EXPECT_TRUE(r.saturated_hardware().empty());
  EXPECT_FALSE(r.saturated_soft().empty());
}

TEST(ExperimentOptionsTest, FromEnvHonoursFullFlag) {
  ::setenv("SOFTRES_FULL", "1", 1);
  const ExperimentOptions full = ExperimentOptions::from_env();
  ::unsetenv("SOFTRES_FULL");
  const ExperimentOptions quick = ExperimentOptions::from_env();
  EXPECT_NEAR(full.client.runtime_s, 720.0, 1e-9);
  EXPECT_LT(quick.client.runtime_s, full.client.runtime_s);
}

// from_env() with `knob` set to `value`, unset again afterwards; returns the
// exception message, or "" when the value was accepted.
std::string from_env_error(const char* knob, const char* value) {
  ::setenv(knob, value, 1);
  std::string what;
  try {
    ExperimentOptions::from_env();
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  ::unsetenv(knob);
  return what;
}

TEST(ExperimentOptionsTest, FromEnvParsesSeedAndTraceRate) {
  ::setenv("SOFTRES_SEED", "18446744073709551615", 1);
  ::setenv("SOFTRES_TRACE_RATE", "0.25", 1);
  const ExperimentOptions opts = ExperimentOptions::from_env();
  ::unsetenv("SOFTRES_SEED");
  ::unsetenv("SOFTRES_TRACE_RATE");
  EXPECT_EQ(opts.client.seed, 18446744073709551615ull);
  EXPECT_EQ(opts.trace_sample_rate(), 0.25);
  EXPECT_EQ(from_env_error("SOFTRES_TRACE_RATE", "0"), "");
  EXPECT_EQ(from_env_error("SOFTRES_TRACE_RATE", "1"), "");
}

TEST(ExperimentOptionsTest, FromEnvRejectsNonNumericSeed) {
  // strtoull alone would read each of these as some seed, often 0.
  for (const char* bad : {"xyz", "", "12abc", "-5", " 7", "1e3"}) {
    const std::string what = from_env_error("SOFTRES_SEED", bad);
    EXPECT_NE(what.find("SOFTRES_SEED"), std::string::npos) << bad;
  }
  EXPECT_NE(from_env_error("SOFTRES_SEED", "18446744073709551616")
                .find("SOFTRES_SEED"),
            std::string::npos);
}

TEST(ExperimentOptionsTest, FromEnvRejectsSwitchesOtherThanZeroOrOne) {
  // Values a first-character test would misread: "10" as on, the rest as
  // off.
  for (const char* knob : {"SOFTRES_FULL", "SOFTRES_PROFILE"}) {
    for (const char* bad : {"10", "yes", "on", "true", "", " 1", "01"}) {
      const std::string what = from_env_error(knob, bad);
      EXPECT_NE(what.find(knob), std::string::npos) << knob << "=" << bad;
    }
    EXPECT_EQ(from_env_error(knob, "0"), "") << knob;
    EXPECT_EQ(from_env_error(knob, "1"), "") << knob;
  }
}

TEST(ExperimentOptionsTest, FromEnvOverlaysSwitchesOnTheBase) {
  ExperimentOptions base;
  base.client.runtime_s = 60.0;
  base.profile = true;
  EXPECT_EQ(ExperimentOptions::from_env(base).client.runtime_s, 60.0);
  EXPECT_TRUE(ExperimentOptions::from_env(base).profile);
  ::setenv("SOFTRES_FULL", "1", 1);
  ::setenv("SOFTRES_PROFILE", "0", 1);
  const ExperimentOptions opts = ExperimentOptions::from_env(base);
  ::unsetenv("SOFTRES_FULL");
  ::unsetenv("SOFTRES_PROFILE");
  EXPECT_EQ(opts.client.runtime_s, 720.0);
  EXPECT_FALSE(opts.profile);
}

TEST(ExperimentOptionsTest, FromEnvRejectsTraceRateOutsideUnitInterval) {
  for (const char* bad : {"1.5", "-0.1", "2", "inf"}) {
    const std::string what = from_env_error("SOFTRES_TRACE_RATE", bad);
    EXPECT_NE(what.find("SOFTRES_TRACE_RATE"), std::string::npos) << bad;
  }
}

TEST(ExperimentOptionsTest, FromEnvRejectsNanOrGarbageTraceRate) {
  for (const char* bad : {"nan", "NaN", "abc", "", "0.5x"}) {
    const std::string what = from_env_error("SOFTRES_TRACE_RATE", bad);
    EXPECT_NE(what.find("SOFTRES_TRACE_RATE"), std::string::npos) << bad;
  }
}

}  // namespace
}  // namespace softres::exp
