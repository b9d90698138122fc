// Microbenchmarks of the simulation kernel (google-benchmark): event queue
// throughput, processor-sharing CPU model, pool operations, and whole-
// testbed event rate. These bound how fast the figure benches can sweep.

#include <benchmark/benchmark.h>

#include "exp/config.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/run_context.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "hw/cpu.h"
#include "sim/distributions.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "soft/pool.h"

using namespace softres;

namespace {

void BM_EventScheduleExecute(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim.schedule(1.0, [&fired] { ++fired; });
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventScheduleExecute);

void BM_EventQueueDepth(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    // Seed-derivation contract: even a kernel microbench derives its stream
    // from the bench point's identity (depth in the users slot), never from
    // an ad-hoc literal. SOFTRES_LINT_ALLOW(SR004: seed from derive_seed)
    sim::Rng rng(exp::RunContext::derive_seed(1, exp::HardwareConfig{},
                                              exp::SoftConfig{}, depth));
    for (std::size_t i = 0; i < depth; ++i) {
      sim.schedule(rng.next_double(), [] {});
    }
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(depth));
}
BENCHMARK(BM_EventQueueDepth)->Arg(1000)->Arg(10000)->Arg(100000);

// The closed-loop shape of a RUBBoS trial: N idle sessions' think timers
// (mean 70 s, the think_heavy think time) pending behind 20 short request
// hops (mean 2 ms) that do almost all of the firing. Every fired event
// re-arms its own class, so the pending mix stays at N far + 20 near and
// one iteration is one dispatched event.
class BimodalLoad {
 public:
  BimodalLoad(std::size_t far_timers, std::uint64_t seed) : rng_(seed) {
    for (std::size_t i = 0; i < far_timers; ++i) arm_far();
    for (int i = 0; i < 20; ++i) arm_near();
  }
  sim::Simulator& sim() { return sim_; }

 private:
  void arm_far() {
    sim_.schedule(sim::fast_exponential(rng_, 70.0), [this] { arm_far(); });
  }
  void arm_near() {
    sim_.schedule(sim::fast_exponential(rng_, 0.002), [this] { arm_near(); });
  }
  sim::Simulator sim_;
  sim::Rng rng_;
};

void BM_EventQueueBimodal(benchmark::State& state) {
  const auto far_timers = static_cast<std::size_t>(state.range(0));
  // SOFTRES_LINT_ALLOW(SR004: seed from derive_seed)
  BimodalLoad load(far_timers,
                   exp::RunContext::derive_seed(1, exp::HardwareConfig{},
                                                exp::SoftConfig{}, far_timers));
  for (auto _ : state) benchmark::DoNotOptimize(load.sim().step());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueBimodal)->Arg(0)->Arg(5000)->Arg(32000);

void BM_CpuProcessorSharing(benchmark::State& state) {
  const auto concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    hw::Cpu cpu(sim, "c", 1);
    int done = 0;
    state.ResumeTiming();
    for (int i = 0; i < concurrency; ++i) {
      cpu.submit(0.001 * (i + 1), [&done] { ++done; });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          concurrency);
}
BENCHMARK(BM_CpuProcessorSharing)->Arg(10)->Arg(100)->Arg(500);

void BM_PoolAcquireRelease(benchmark::State& state) {
  sim::Simulator sim;
  soft::Pool pool(sim, "p", 16);
  for (auto _ : state) {
    pool.acquire([] {});
    pool.release();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PoolAcquireRelease);

void BM_PoolContended(benchmark::State& state) {
  sim::Simulator sim;
  soft::Pool pool(sim, "p", 4);
  for (int i = 0; i < 4; ++i) pool.acquire([] {});
  for (auto _ : state) {
    pool.acquire([&pool] { pool.release(); });  // waits, then releases
    pool.release();                             // admits the waiter
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PoolContended);

void BM_TestbedTrial(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  // range(1): trace sample rate in 1/1000 — 0 measures the tracing-off fast
  // path (a null-pointer check per event), which must stay within noise of
  // the pre-observability kernel.
  const double trace_rate = static_cast<double>(state.range(1)) / 1000.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
    workload::ClientConfig client;
    client.users = users;
    client.ramp_up_s = 5.0;
    client.runtime_s = 15.0;
    client.ramp_down_s = 2.0;
    client.trace_sample_rate = trace_rate;
    exp::Testbed bed(cfg, client);
    bed.run();
    events += bed.simulator().events_executed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetLabel("events/iter=" +
                 std::to_string(events / state.iterations()));
}
BENCHMARK(BM_TestbedTrial)
    ->Args({500, 0})
    ->Args({2000, 0})
    ->Args({2000, 10})   // 1% traced
    ->Args({2000, 1000}) // every dynamic request traced
    ->Unit(benchmark::kMillisecond);

// Sweep throughput in trials/s: the quantity the ParallelExecutor exists to
// raise. range(0) is the pool size (1 = the strictly serial baseline,
// 0 = SOFTRES_JOBS / all cores); items processed = trials, so the reported
// items/s is directly comparable across pool sizes. Expect >= 2x on a
// 4-core machine.
void BM_SweepThroughput(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  // 10x demands keep individual trials short without changing the event mix.
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;
  exp::ExperimentOptions opts;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 20.0;
  opts.client.ramp_down_s = 2.0;
  opts.keep_series = false;
  const exp::Experiment e(cfg, opts);
  const auto workloads = exp::workload_range(100, 800, 100);  // 8 trials

  std::uint64_t trials = 0;
  double tp_checksum = 0.0;
  for (auto _ : state) {
    const auto results =
        exp::sweep_workload(e, exp::SoftConfig{50, 10, 10}, workloads, jobs);
    trials += results.size();
    for (const auto& r : results) tp_checksum += r.throughput;
  }
  benchmark::DoNotOptimize(tp_checksum);
  state.SetItemsProcessed(static_cast<int64_t>(trials));
  state.SetLabel("jobs=" + std::to_string(
                     jobs ? jobs : exp::ParallelExecutor::default_jobs()));
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)   // serial baseline
    ->Arg(0)   // SOFTRES_JOBS / hardware_concurrency
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
