#include "layer_probes.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exp/parallel.h"
#include "host_clock.h"
#include "hw/cpu.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "soft/pool.h"
#include "support/prof.h"

namespace softbench {

using namespace softres;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

constexpr std::uint64_t kProbeSeed = 0x50f7be4c4ull;
constexpr int kProbeReps = 3;
constexpr std::size_t kUslPasses = 3;

/// Median over kProbeReps of `body(ops)` timed, in ns per op.
template <typename Body>
double time_ns_per_op(std::uint64_t ops, Body body) {
  std::vector<double> ns;
  for (int r = 0; r < kProbeReps; ++r) {
    const std::int64_t t0 = host_ns();
    body(ops);
    ns.push_back(static_cast<double>(host_ns() - t0) /
                 static_cast<double>(ops));
  }
  return median(ns);
}

struct SimHop {
  sim::Simulator* sim = nullptr;
  sim::Rng* rng = nullptr;
  void fire() {
    sim->schedule(rng->exponential(1.0), [this] { fire(); });
  }
};

struct CpuLoop {
  sim::Simulator* sim = nullptr;
  hw::Cpu* cpu = nullptr;
  sim::Rng* rng = nullptr;
  std::uint64_t done = 0;
  void submit() {
    cpu->submit(rng->exponential(0.01), [this] {
      ++done;
      submit();
    });
  }
};

}  // namespace

double probe_sim_ns(std::size_t depth) {
  sim::Simulator sim;
  sim::Rng rng(kProbeSeed);  // SOFTRES_LINT_ALLOW(SR004: fixed probe input)
  SimHop hop{&sim, &rng};
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) hop.fire();
  return time_ns_per_op(400000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) sim.step();
  });
}

double probe_cpu_ns(double jobs) {
  sim::Simulator sim;
  sim::Rng rng(kProbeSeed);  // SOFTRES_LINT_ALLOW(SR004: fixed probe input)
  hw::Cpu cpu(sim, "probe.cpu", 1, 0.004);
  CpuLoop loop{&sim, &cpu, &rng};
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(jobs)));
  for (std::size_t i = 0; i < n; ++i) loop.submit();
  return time_ns_per_op(200000, [&](std::uint64_t ops) {
    const std::uint64_t until = loop.done + ops;
    while (loop.done < until && sim.step()) {
    }
  });
}

double probe_pool_ns(double waiters) {
  sim::Simulator sim;
  constexpr std::size_t kCapacity = 16;
  soft::Pool pool(sim, "probe.pool", kCapacity);
  const auto depth = static_cast<std::size_t>(std::max(0.0, std::round(waiters)));
  for (std::size_t i = 0; i < kCapacity + depth; ++i) pool.acquire([] {});
  const double ns = time_ns_per_op(400000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      pool.release();      // grants the head waiter (or frees a unit)
      pool.acquire([] {});  // queues behind the others again
    }
  });
  // Hand back every unit still held so the pool ends balanced.
  while (pool.in_use() > 0) pool.release();
  return ns;
}

UslFit fit_usl(const std::vector<TrialRef>& subset, std::size_t max_jobs) {
  UslFit fit;
  fit.trials = subset.size();
  // Passes interleave the widths, so slow drift of the host shifts every N
  // alike instead of biasing the widths timed last.
  std::vector<std::vector<double>> rate(max_jobs);
  std::vector<std::uint64_t> serial;
  for (std::size_t pass = 0; pass < kUslPasses; ++pass) {
    for (std::size_t n = 1; n <= max_jobs; ++n) {
      exp::ParallelExecutor pool(n);
      const std::int64_t t0 = host_ns();
      const std::vector<std::uint64_t> digests =
          pool.run_indexed(subset.size(), [&subset](std::size_t i) {
            return digest_of(subset[i].exp.run(subset[i].soft, subset[i].users));
          });
      rate[n - 1].push_back(static_cast<double>(subset.size()) /
                            seconds_between(t0, host_ns()));
      if (serial.empty()) {
        serial = digests;
      } else {
        for (std::size_t i = 0; i < digests.size(); ++i) {
          if (digests[i] != serial[i]) ++fit.mismatches;
        }
      }
    }
  }
  for (const std::vector<double>& r : rate) fit.trials_per_s.push_back(median(r));
  // Linearised: N X(1) / X(N) - 1 = s (N-1) + k N (N-1), least squares.
  double aa = 0, ab = 0, bb = 0, ay = 0, by = 0;
  for (std::size_t n = 2; n <= fit.trials_per_s.size(); ++n) {
    const double N = static_cast<double>(n);
    const double y = N * fit.trials_per_s[0] / fit.trials_per_s[n - 1] - 1.0;
    const double a = N - 1.0;
    const double b = N * (N - 1.0);
    aa += a * a;
    ab += a * b;
    bb += b * b;
    ay += a * y;
    by += b * y;
  }
  const double det = aa * bb - ab * ab;
  if (std::abs(det) > 1e-12) {
    fit.sigma = (ay * bb - by * ab) / det;
    fit.kappa = (aa * by - ab * ay) / det;
  } else if (aa > 0) {
    fit.sigma = ay / aa;  // two points: contention only
  }
  return fit;
}

Overheads measure_overheads(const TrialRef& trial, std::size_t jobs,
                            std::size_t reps) {
  // Variants: own options, trace rate 0, trace rate 1.0, own + profiling.
  exp::ExperimentOptions own = trial.exp.options();
  exp::ExperimentOptions untraced = own;
  untraced.set_trace_sample_rate(0.0);
  exp::ExperimentOptions traced = own;
  traced.set_trace_sample_rate(1.0);
  exp::ExperimentOptions profiled = own;
  profiled.profile = true;
  const std::vector<exp::Experiment> variants = {
      trial.exp, exp::Experiment(trial.exp.base_config(), untraced),
      exp::Experiment(trial.exp.base_config(), traced),
      exp::Experiment(trial.exp.base_config(), profiled)};

  struct Sample {
    double cpu_s = 0;
    std::uint64_t digest = 0;
    std::uint64_t link_msgs = 0;
  };
  const std::size_t n = variants.size() * reps;
  exp::ParallelExecutor pool(jobs);
  const std::vector<Sample> samples = pool.run_indexed(n, [&](std::size_t i) {
    const exp::Experiment& e = variants[i % variants.size()];
    Sample s;
    const double c0 = thread_cpu_s();
    const exp::RunResult r = e.run(trial.soft, trial.users);
    s.cpu_s = thread_cpu_s() - c0;
    s.digest = digest_of(r);
    if (r.profile.enabled) {
      for (std::size_t ph = 0; ph < prof::kPhases; ++ph) {
        s.link_msgs += r.profile.counts[ph][static_cast<std::size_t>(
            prof::Subsystem::kLinkService)];
      }
    }
    return s;
  });

  std::vector<std::vector<double>> cpu(variants.size());
  for (std::size_t i = 0; i < n; ++i) {
    cpu[i % variants.size()].push_back(samples[i].cpu_s);
  }
  Overheads o;
  o.trace_frac = median(cpu[2]) / median(cpu[1]) - 1.0;
  o.profile_frac = median(cpu[3]) / median(cpu[0]) - 1.0;
  o.link_msgs = samples[3].link_msgs;
  o.profile_neutral = samples[3].digest == samples[0].digest;
  return o;
}

}  // namespace softbench
