#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace softres::exp {
namespace {

TEST(WorkloadRangeTest, InclusiveArithmetic) {
  EXPECT_EQ(workload_range(1000, 3000, 1000),
            (std::vector<std::size_t>{1000, 2000, 3000}));
  EXPECT_EQ(workload_range(5, 5, 1), (std::vector<std::size_t>{5}));
  // Step overshooting the bound stops before it.
  EXPECT_EQ(workload_range(10, 25, 10), (std::vector<std::size_t>{10, 20}));
}

TEST(SweepTest, RunsEveryWorkloadPoint) {
  TestbedConfig cfg = TestbedConfig::defaults();
  // 10x demands so trials are cheap.
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;
  ExperimentOptions opts;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 15.0;
  opts.client.ramp_down_s = 2.0;
  Experiment e(cfg, opts);

  const auto workloads = workload_range(100, 300, 100);
  const auto results = sweep_workload(e, SoftConfig{50, 10, 10}, workloads);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].users, workloads[i]);
    EXPECT_GT(results[i].throughput, 0.0);
  }
  // Below saturation throughput grows with population.
  EXPECT_GT(results[2].throughput, results[0].throughput);

  EXPECT_NEAR(max_throughput(results), results[2].throughput, 1e-9);
  EXPECT_GE(max_goodput(results, 2.0), max_goodput(results, 0.2));
}

// A report that cannot be written must fail the sweep loudly: the worker's
// std::runtime_error is rethrown by the executor and names the knob and path.
TEST(SweepTest, UnwritableReportPathThrowsThroughSweep) {
  TestbedConfig cfg = TestbedConfig::defaults();
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;
  ExperimentOptions opts;
  opts.client.ramp_up_s = 2.0;
  opts.client.runtime_s = 5.0;
  opts.client.ramp_down_s = 1.0;
  const std::string dir = ::testing::TempDir() + "softres-no-such-dir";
  opts.report_html = dir + "/report.html";
  Experiment e(cfg, opts);

  std::string what;
  try {
    sweep_workload(e, SoftConfig{50, 10, 10}, {100, 200}, /*jobs=*/2);
  } catch (const std::runtime_error& err) {
    what = err.what();
  }
  EXPECT_NE(what.find("SOFTRES_REPORT_HTML"), std::string::npos) << what;
  EXPECT_NE(what.find(dir + "/report_s50-10-10_u"), std::string::npos)
      << what;
}

TEST(SweepTest, EmptyInputs) {
  EXPECT_EQ(max_throughput({}), 0.0);
  EXPECT_EQ(max_goodput({}, 1.0), 0.0);
}

}  // namespace
}  // namespace softres::exp
