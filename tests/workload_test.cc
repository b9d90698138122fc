#include <gtest/gtest.h>

#include <map>

#include "exp/config.h"
#include "exp/testbed.h"
#include "workload/rubbos.h"

namespace softres::workload {
namespace {

TEST(RubbosTest, TableHas24Interactions) {
  EXPECT_EQ(RubbosWorkload::default_interactions().size(), 24u);
}

TEST(RubbosTest, WriteInteractionsAbsentFromBrowseMix) {
  RubbosWorkload w(Mix::kBrowseOnly);
  sim::Rng rng(1);
  tier::Request req;
  for (int i = 0; i < 20000; ++i) {
    w.sample_dynamic(req, rng);
    const auto& it = w.interactions()[static_cast<std::size_t>(req.interaction)];
    ASSERT_GT(it.browse_weight, 0.0) << it.name;
  }
}

TEST(RubbosTest, ReadWriteMixIncludesWrites) {
  RubbosWorkload w(Mix::kReadWrite);
  sim::Rng rng(2);
  tier::Request req;
  bool saw_write = false;
  for (int i = 0; i < 20000 && !saw_write; ++i) {
    w.sample_dynamic(req, rng);
    const auto& it = w.interactions()[static_cast<std::size_t>(req.interaction)];
    if (it.browse_weight == 0.0) saw_write = true;
  }
  EXPECT_TRUE(saw_write);
}

TEST(RubbosTest, ReqRatioMatchesEmpiricalMean) {
  RubbosWorkload w(Mix::kBrowseOnly);
  sim::Rng rng(3);
  tier::Request req;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    w.sample_dynamic(req, rng);
    sum += req.num_queries;
  }
  EXPECT_NEAR(sum / n, w.req_ratio(), 0.03);
}

TEST(RubbosTest, ReqRatioDiffersByMix) {
  RubbosWorkload browse(Mix::kBrowseOnly);
  RubbosWorkload rw(Mix::kReadWrite);
  EXPECT_NE(browse.req_ratio(), rw.req_ratio());
  // Both in a plausible RUBBoS range.
  EXPECT_GT(browse.req_ratio(), 1.5);
  EXPECT_LT(browse.req_ratio(), 4.0);
}

TEST(RubbosTest, DemandMeansMatchProfile) {
  DemandProfile profile;
  RubbosWorkload w(Mix::kBrowseOnly, profile);
  sim::Rng rng(4);
  tier::Request req;
  double tomcat_sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    w.sample_dynamic(req, rng);
    tomcat_sum += req.tomcat_demand_s;
  }
  EXPECT_NEAR(tomcat_sum / n, w.mean_tomcat_demand(),
              0.03 * w.mean_tomcat_demand());
}

TEST(RubbosTest, StaticRequestsTouchNoBackend) {
  RubbosWorkload w;
  sim::Rng rng(5);
  tier::Request req;
  w.sample_static(req, rng);
  EXPECT_EQ(req.kind, tier::RequestKind::kStatic);
  EXPECT_EQ(req.num_queries, 0);
  EXPECT_EQ(req.tomcat_demand_s, 0.0);
  EXPECT_GT(req.apache_demand_s, 0.0);
}

TEST(RubbosTest, ZeroVariabilityGivesDeterministicDemands) {
  DemandProfile profile;
  profile.variability = 0.0;
  RubbosWorkload w(Mix::kBrowseOnly, profile);
  sim::Rng rng(6);
  tier::Request a, b;
  // Same interaction index (force by resampling until equal) has identical
  // demands when variability is zero.
  w.sample_dynamic(a, rng);
  do {
    w.sample_dynamic(b, rng);
  } while (b.interaction != a.interaction);
  EXPECT_EQ(a.tomcat_demand_s, b.tomcat_demand_s);
  EXPECT_EQ(a.mysql_demand_s, b.mysql_demand_s);
}

TEST(RubbosTest, DemandsAreNonNegativeAndFinite) {
  RubbosWorkload w(Mix::kReadWrite);
  sim::Rng rng(7);
  tier::Request req;
  for (int i = 0; i < 50000; ++i) {
    w.sample_dynamic(req, rng);
    ASSERT_GE(req.tomcat_demand_s, 0.0);
    ASSERT_GE(req.cjdbc_demand_s, 0.0);
    ASSERT_GE(req.mysql_demand_s, 0.0);
    ASSERT_LT(req.tomcat_demand_s, 1.0);
    ASSERT_GE(req.num_queries, 1);
    ASSERT_LE(req.num_queries, 6);
  }
}

TEST(RubbosTest, InteractionFrequenciesFollowWeights) {
  RubbosWorkload w(Mix::kBrowseOnly);
  sim::Rng rng(8);
  tier::Request req;
  std::map<int, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    w.sample_dynamic(req, rng);
    counts[req.interaction]++;
  }
  // ViewStory (index 1) carries weight 22 of ~100 total.
  double total_w = 0.0;
  for (const auto& it : w.interactions()) total_w += it.browse_weight;
  const double expected = 22.0 / total_w;
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, expected, 0.01);
}

}  // namespace
}  // namespace softres::workload

// ---- ClientFarm elastic load schedules, on the full testbed ----

namespace softres::exp {
namespace {

workload::ClientConfig quick_client(std::size_t users, double runtime = 60.0) {
  workload::ClientConfig c;
  c.users = users;
  c.ramp_up_s = 5.0;
  c.runtime_s = runtime;
  c.ramp_down_s = 2.0;
  return c;
}

TEST(ElasticLoadTest, ActiveUsersFollowSchedule) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(1000, 60.0));
  bed.farm().set_load_schedule({{0.0, 200}, {20.0, 800}, {40.0, 300}});
  bed.farm().start();
  bed.simulator().run_until(10.0);
  EXPECT_EQ(bed.farm().active_users(), 200u);
  bed.simulator().run_until(25.0);
  EXPECT_EQ(bed.farm().active_users(), 800u);
  bed.simulator().run_until(65.0);
  // Shrink is lazy (cycle boundaries) but must settle within think time.
  EXPECT_LE(bed.farm().active_users(), 320u);
  EXPECT_GE(bed.farm().active_users(), 250u);
}

TEST(ElasticLoadTest, ScheduleStartsWithRun) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(600, 40.0));
  bed.farm().set_load_schedule({{0.0, 300}, {20.0, 600}});
  bed.run();
  EXPECT_GT(bed.farm().response_times().count(), 100u);
  EXPECT_EQ(bed.farm().active_users(), 600u);
}

TEST(ElasticLoadTest, EmptyScheduleKeepsLegacyBehaviour) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(400, 30.0));
  bed.run();
  EXPECT_EQ(bed.farm().active_users(), 400u);
}

TEST(ElasticLoadTest, ThroughputTracksPopulation) {
  // Double the active population below saturation -> ~double throughput.
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(1200, 120.0));
  bed.farm().set_load_schedule({{0.0, 500}, {65.0, 1000}});
  bed.run();
  const auto& times = bed.farm().completion_times();
  std::size_t first_half = 0, second_half = 0;
  for (double t : times) {
    // Measurement window is [5, 125); phase flips at 65.
    if (t < 60.0) {
      ++first_half;
    } else if (t >= 70.0) {
      ++second_half;
    }
  }
  const double rate1 = static_cast<double>(first_half) / 55.0;
  const double rate2 = static_cast<double>(second_half) / 55.0;
  EXPECT_NEAR(rate2 / rate1, 2.0, 0.3);
}

}  // namespace
}  // namespace softres::exp
