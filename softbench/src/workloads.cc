#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <sstream>
#include <utility>

#include "bench_util.h"
#include "core/allocation.h"
#include "core/ops_laws.h"
#include "exp/parallel.h"
#include "exp/runner_adapter.h"
#include "exp/sweep.h"
#include "host_clock.h"
#include "obs/diagnoser.h"
#include "workload/load_shapes.h"

namespace softbench {

using namespace softres;

namespace {

/// The figure drivers' compressed 20/60/3 s schedule with every other option
/// at its default (series kept, tracing off, 7 s think time). The benchmark
/// reads no SOFTRES_* environment: its inputs come from the seed alone.
exp::ExperimentOptions compressed(std::uint64_t seed) {
  exp::ExperimentOptions o;
  o.client.seed = seed;
  o.client.ramp_up_s = 20.0;
  o.client.runtime_s = 60.0;
  o.client.ramp_down_s = 3.0;
  return o;
}

exp::Experiment experiment(const std::string& hw, exp::ExperimentOptions o) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig::parse(hw);
  return exp::Experiment(cfg, std::move(o));
}

std::string label_of(const std::string& tag, const exp::Experiment& e,
                     const exp::SoftConfig& soft, std::size_t users) {
  return tag + " " + e.base_config().hw.to_string() + " " + soft.to_string() +
         " u" + std::to_string(users);
}

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

void record_trial(Outcome& out, const TrialRef& ref, const exp::RunResult& r) {
  out.records.push_back({ref.label, digest_of(r)});
  out.replay.push_back(Replay{ref, false});
}

/// The span run's executor batch: the trials of `tasks` on a fresh
/// ParallelExecutor (as sweep_grid does), each through run_trial.
std::vector<exp::RunResult> run_spanned(const std::vector<TrialRef>& tasks,
                                        SpanRun& sp, bool on_caller = false) {
  const std::uint64_t batch_id = sp.log.next_id();
  std::vector<TrialStats> stats(tasks.size());
  const std::int64_t t0 = host_ns();
  auto one = [&](std::size_t i) {
    return run_trial(tasks[i].exp, tasks[i].soft, tasks[i].users, &stats[i],
                     &sp.log, batch_id);
  };
  std::vector<exp::RunResult> results;
  if (on_caller) {
    for (std::size_t i = 0; i < tasks.size(); ++i) results.push_back(one(i));
  } else {
    exp::ParallelExecutor pool(sp.jobs);
    results = pool.run_indexed(tasks.size(), one);
  }
  const std::int64_t t1 = host_ns();
  sp.log.add(Span{batch_id, sp.parent, 0, "exp.batch", t0, t1});
  double longest_ms = 0;
  for (const TrialStats& s : stats) {
    longest_ms = std::max(longest_ms, s.trial_ms());
    sp.trials.push_back(s);
  }
  sp.batch_longest_ms.push_back(longest_ms);
  return results;
}

/// A soft-allocation x workload grid of one Experiment, flattened soft-major
/// exactly like exp::sweep_grid.
struct Grid {
  std::string tag;
  exp::Experiment exp;
  std::vector<exp::SoftConfig> softs;
  std::vector<std::size_t> users;

  std::vector<TrialRef> trials() const {
    std::vector<TrialRef> out;
    for (const auto& s : softs) {
      for (std::size_t u : users) {
        out.push_back({exp, s, u, label_of(tag, exp, s, u)});
      }
    }
    return out;
  }
  const exp::RunResult& at(const std::vector<exp::RunResult>& flat,
                           std::size_t soft, std::size_t user) const {
    return flat[soft * users.size() + user];
  }
};

/// Run grids back to back: through exp::sweep_grid, or spanned. Returns each
/// grid's results flattened soft-major; fills records, wall and CPU time.
std::vector<std::vector<exp::RunResult>> run_grids(
    const std::vector<Grid>& grids, std::size_t jobs, SpanRun* spans,
    Outcome& out) {
  std::vector<std::vector<exp::RunResult>> flat(grids.size());
  const double c0 = process_cpu_s();
  const std::int64_t t0 = host_ns();
  for (std::size_t g = 0; g < grids.size(); ++g) {
    if (spans != nullptr) {
      flat[g] = run_spanned(grids[g].trials(), *spans);
      continue;
    }
    auto rows = exp::sweep_grid(grids[g].exp, grids[g].softs, grids[g].users,
                                jobs);
    for (auto& row : rows) {
      for (auto& r : row) flat[g].push_back(std::move(r));
    }
  }
  out.wall_s = seconds_between(t0, host_ns());
  out.cpu_s = process_cpu_s() - c0;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const std::vector<TrialRef> refs = grids[g].trials();
    for (std::size_t i = 0; i < refs.size(); ++i) {
      record_trial(out, refs[i], flat[g][i]);
    }
    out.trials += refs.size();
  }
  return flat;
}

/// One of bench/bench_util.h's acceptance checks as a Check: `check` bumps
/// its failure counter on a miss, and the verdict line it prints becomes the
/// detail.
template <typename Fn>
Check bench_check(const std::string& name, Fn check) {
  std::ostringstream printed;
  std::streambuf* const saved = std::cout.rdbuf(printed.rdbuf());
  int failures = 0;
  check(failures);
  std::cout.rdbuf(saved);
  std::string detail;
  std::istringstream words(printed.str());
  for (std::string w; words >> w;) detail += (detail.empty() ? "" : " ") + w;
  return {name, failures == 0, false, detail};
}

Check expect_diagnosis(const exp::RunResult& r, obs::Pathology want,
                       const std::string& name) {
  return bench_check(name, [&](int& failures) {
    bench::expect_diagnosis(r, want, name, failures);
  });
}

Check expect_tail_blame(const exp::RunResult& r, const std::string& want,
                        const std::string& name) {
  return bench_check(name, [&](int& failures) {
    bench::expect_tail_blame(r, want, name, failures);
  });
}

// ---------------------------------------------------------------------------
// paper_grid: the Fig 4 and Fig 5 grids the figure drivers run.

class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(std::uint64_t seed) {
    // Fig 4 runs traced at 1% (its tail check reads the blame vectors);
    // Fig 5 runs untraced, as in bench_fig4 / bench_fig5.
    exp::ExperimentOptions traced = compressed(seed);
    traced.set_trace_sample_rate(0.01);
    Grid fig4{"fig4", experiment("1/2/1/2", traced), {}, {}};
    for (std::size_t p : {6, 10, 20, 200}) {
      fig4.softs.push_back(exp::SoftConfig{400, p, 200});
    }
    fig4.users = exp::workload_range(4600, 6600, 400);
    Grid fig5{"fig5", experiment("1/4/1/4", compressed(seed)), {}, {}};
    for (std::size_t c : {10, 50, 100, 200}) {
      fig5.softs.push_back(exp::SoftConfig{400, 200, c});
    }
    fig5.users = exp::workload_range(6000, 7800, 600);
    grids_ = {std::move(fig4), std::move(fig5)};
  }

  Outcome run(std::size_t jobs, SpanRun* spans) const override {
    Outcome out;
    const auto flat = run_grids(grids_, jobs, spans, out);
    const Grid& fig4 = grids_[0];
    const Grid& fig5 = grids_[1];
    const auto& f4 = flat[0];
    const auto& f5 = flat[1];
    out.checks.push_back(expect_diagnosis(fig4.at(f4, 0, 5),
                                          obs::Pathology::kSoftUnderAlloc,
                                          "fig4 pool 6 @ 6600 kSoftUnderAlloc"));
    out.checks.push_back(expect_diagnosis(
        fig4.at(f4, 3, 0), obs::Pathology::kNone, "fig4 pool 200 @ 4600 kNone"));
    out.checks.push_back(expect_tail_blame(fig4.at(f4, 0, 1), "tomcat.queue",
                                           "fig4 pool 6 @ 5000 p99+ blame"));
    const double g10 = fig5.at(f5, 0, 3).goodput(2.0);
    const double g200 = fig5.at(f5, 3, 3).goodput(2.0);
    out.checks.push_back({"fig5 conns 10 > conns 200 goodput @ 7800", g10 > g200,
                          false, fmt(g10, 1) + " vs " + fmt(g200, 1) + " req/s"});

    // Fig 4 saturation onsets of the Tomcat thread pool, against the paper.
    const char* paper[] = {"< 5000", "~5600", "~6000"};
    const double paper_users[] = {5000, 5600, 6000};
    for (std::size_t p = 0; p < 3; ++p) {
      std::size_t onset = 0;
      for (std::size_t u = 0; u < fig4.users.size() && onset == 0; ++u) {
        const exp::PoolStat* s = fig4.at(f4, p, u).find_pool("tomcat0.threads");
        if (s != nullptr && s->saturated) onset = fig4.users[u];
      }
      std::string line = "fig4 pool " + fig4.softs[p].to_string() +
                         " saturation onset: paper " + paper[p] + ", simulated ";
      line += onset == 0 ? "none in 4600-6600"
                         : std::to_string(onset) + " (" +
                               fmt(static_cast<double>(onset) - paper_users[p], 0) +
                               " users)";
      out.accuracy.push_back(line);
    }
    out.accuracy.push_back("fig5 conns-10 goodput ahead of conns-200 @ 7800: "
                           "paper ~34%, simulated " +
                           fmt(100.0 * (g10 - g200) / g200, 1) + "%");
    return out;
  }

  TrialRef first_trial() const override { return grids_[0].trials().front(); }
  TrialRef probe_trial() const override {
    return grids_[0].trials()[2 * grids_[0].users.size() + 2];  // pool 20 @ 5400
  }
  const std::vector<Grid>& grids() const { return grids_; }
 private:
  std::vector<Grid> grids_;
};

// ---------------------------------------------------------------------------
// think_heavy: ten times the users, think time and ramp-up of a compressed
// 2000-4500 user sweep. The longer ramp keeps the session-start burst (every
// new session browses at once) under the backend's ~817 req/s plateau, so
// the measurement window is stationary; at 50000 users the end of the ramp
// already overruns it.

constexpr double kThinkScale = 10.0;
// Interactive response-time law tolerance, as a share of the user cycle time
// R + Z. A 60 s window sees under one 70 s think time per user, so the
// window throughput carries ~1% sampling noise.
constexpr double kLawTolerance = 0.03;

class ThinkHeavy final : public Workload {
 public:
  explicit ThinkHeavy(std::uint64_t seed) {
    exp::ExperimentOptions o = compressed(seed);
    o.keep_series = false;
    o.client.think_time_mean_s *= kThinkScale;
    o.client.users_capacity *= kThinkScale;
    o.client.ramp_up_s *= kThinkScale;
    Grid g{"think", experiment("1/4/1/4", o), {exp::SoftConfig{400, 200, 60}},
           {}};
    for (std::size_t u : exp::workload_range(2000, 4500, 250)) {
      g.users.push_back(static_cast<std::size_t>(kThinkScale) * u);
    }
    grids_ = {std::move(g)};
  }

  Outcome run(std::size_t jobs, SpanRun* spans) const override {
    Outcome out;
    const auto flat = run_grids(grids_, jobs, spans, out);
    const Grid& g = grids_[0];
    const double z = g.exp.options().client.think_time_mean_s;
    double worst = 0.0;
    std::string worst_at;
    for (std::size_t u = 0; u < g.users.size(); ++u) {
      const exp::RunResult& r = g.at(flat[0], 0, u);
      const double measured = r.response_times.mean();
      const double law = core::interactive_rt(r.users, r.throughput, z);
      const double dev = std::abs(law - measured) / (measured + z);
      if (dev >= worst) {
        worst = dev;
        worst_at = std::to_string(r.users) + " users: R " +
                   fmt(1000.0 * measured, 1) + " ms, N/X - Z " +
                   fmt(1000.0 * law, 1) + " ms";
      }
    }
    out.checks.push_back({"interactive response-time law within " +
                              fmt(100.0 * kLawTolerance, 0) + "% of R+Z",
                          worst <= kLawTolerance, true,
                          "worst " + fmt(100.0 * worst, 2) + "% at " + worst_at});
    const exp::RunResult& top = g.at(flat[0], 0, g.users.size() - 1);
    out.accuracy.push_back("think_heavy " + std::to_string(top.users) +
                           " users: " + fmt(top.throughput, 1) +
                           " req/s, mean response " +
                           fmt(1000.0 * top.response_times.mean(), 1) +
                           " ms (below the ~817 req/s backend plateau)");
    return out;
  }

  TrialRef first_trial() const override { return grids_[0].trials().front(); }
  TrialRef probe_trial() const override { return grids_[0].trials()[4]; }

 private:
  std::vector<Grid> grids_;
};

// ---------------------------------------------------------------------------
// tune_loop: Algorithm 1 (Table I) on 1/2/1/2 and 1/4/1/4, then the governed
// flash crowd.

/// Forwarding decorator around core::ExperimentRunner: digests every
/// observation it passes back and, in the span run, times each round.
class CheckedRunner final : public core::ExperimentRunner {
 public:
  CheckedRunner(core::ExperimentRunner& inner, exp::Experiment exp,
                Outcome& out, SpanRun* spans)
      : inner_(inner), exp_(std::move(exp)), out_(out), spans_(spans) {}

  core::Observation run(const core::Allocation& alloc,
                        std::size_t workload) override {
    return run_batch(alloc, {workload}).front();
  }

  std::vector<core::Observation> run_batch(
      const core::Allocation& alloc,
      const std::vector<std::size_t>& workloads) override {
    const std::int64_t t0 = host_ns();
    const std::uint64_t outer = spans_ != nullptr ? spans_->parent : 0;
    const std::uint64_t id = spans_ != nullptr ? spans_->log.next_id() : 0;
    if (spans_ != nullptr) spans_->parent = id;
    std::vector<core::Observation> obs = inner_.run_batch(alloc, workloads);
    if (spans_ != nullptr) {
      const std::int64_t t1 = host_ns();
      spans_->parent = outer;
      spans_->log.add(Span{id, outer, 0, "core.run_batch", t0, t1});
      ++spans_->core_batches;
      spans_->core_run_batch_ms += 1e-6 * static_cast<double>(t1 - t0);
    }
    const exp::SoftConfig soft = exp::RunnerAdapter::to_soft_config(alloc);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      const std::string label = label_of("alg", exp_, soft, workloads[i]);
      out_.records.push_back({label, digest_of(obs[i])});
      out_.replay.push_back(Replay{{exp_, soft, workloads[i], label}, true});
    }
    return obs;
  }

  std::size_t preferred_batch() const override {
    return inner_.preferred_batch();
  }

 private:
  core::ExperimentRunner& inner_;
  exp::Experiment exp_;
  Outcome& out_;
  SpanRun* spans_;
};

/// exp::RunnerAdapter for the span run: the same rounds, each trial through
/// run_trial on a fresh executor.
class SpanAdapter final : public core::ExperimentRunner {
 public:
  SpanAdapter(exp::Experiment exp, SpanRun& spans)
      : exp_(std::move(exp)), spans_(spans) {}

  core::Observation run(const core::Allocation& alloc,
                        std::size_t workload) override {
    return run_batch(alloc, {workload}).front();
  }
  std::vector<core::Observation> run_batch(
      const core::Allocation& alloc,
      const std::vector<std::size_t>& workloads) override {
    runs_ += workloads.size();
    const exp::SoftConfig soft = exp::RunnerAdapter::to_soft_config(alloc);
    std::vector<TrialRef> tasks;
    for (std::size_t wl : workloads) {
      tasks.push_back({exp_, soft, wl, label_of("alg", exp_, soft, wl)});
    }
    std::vector<core::Observation> out;
    for (const exp::RunResult& r : run_spanned(tasks, spans_)) {
      out.push_back(exp::RunnerAdapter::to_observation(r, kTuneSlo));
    }
    return out;
  }
  std::size_t preferred_batch() const override { return spans_.jobs; }
  std::size_t runs() const { return runs_; }

 private:
  exp::Experiment exp_;
  SpanRun& spans_;
  std::size_t runs_ = 0;
};

class TuneLoop final : public Workload {
 public:
  explicit TuneLoop(std::uint64_t seed)
      : alg_{experiment("1/2/1/2", compressed(seed)),
             experiment("1/4/1/4", compressed(seed))},
        flash_(flash_experiment(seed)) {}

  Outcome run(std::size_t jobs, SpanRun* spans) const override {
    Outcome out;
    const double c0 = process_cpu_s();
    const std::int64_t t0 = host_ns();
    std::vector<core::AllocationReport> reports;
    for (const exp::Experiment& e : alg_) {
      exp::RunnerAdapter adapter(e, kTuneSlo, jobs);
      std::unique_ptr<SpanAdapter> spanned;
      core::ExperimentRunner* inner = &adapter;
      if (spans != nullptr) {
        spanned = std::make_unique<SpanAdapter>(e, *spans);
        inner = spanned.get();
      }
      CheckedRunner checked(*inner, e, out, spans);
      core::AllocationAlgorithm algorithm(checked, core::AlgorithmConfig{});
      const std::int64_t a0 = host_ns();
      if (spans != nullptr) spans->parent = spans->log.next_id();
      reports.push_back(algorithm.run());
      if (spans != nullptr) {
        const std::int64_t a1 = host_ns();
        spans->log.add(Span{spans->parent, 0, 0, "core.allocation_run", a0, a1});
        spans->parent = 0;
        spans->core_alg_ms += 1e-6 * static_cast<double>(a1 - a0);
      }
      out.core_runs += spanned ? spanned->runs() : adapter.runs();
      out.core_consumed += algorithm.experiments_run();
      out.records.push_back({"report " + e.base_config().hw.to_string(),
                             digest_of(reports.back())});
      out.replay.emplace_back();
    }
    out.trials += out.core_runs;

    const exp::GovernedComparison cmp = governed(jobs, spans);
    out.wall_s = seconds_between(t0, host_ns());
    out.cpu_s = process_cpu_s() - c0;
    out.trials += candidates().size() + 1;
    const TrialRef best{static_flash(), cmp.best_static_soft, kFlashUsers,
                        label_of("flash-static", flash_, cmp.best_static_soft,
                                 kFlashUsers)};
    record_trial(out, best, cmp.best_static);
    const TrialRef gov{governed_flash(), candidates().front(), kFlashUsers,
                       label_of("flash-governed", flash_, candidates().front(),
                                kFlashUsers)};
    record_trial(out, gov, cmp.governed);

    const char* want[] = {"tomcat0.cpu", "cjdbc0.cpu"};
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const std::string& got = reports[i].critical.critical_resource;
      out.checks.push_back({"table1 " + alg_[i].base_config().hw.to_string() +
                                " critical resource " + want[i],
                            got == want[i], false, "found " + got});
    }
    out.checks.push_back(
        {"governed flash crowd beats the best static allocation",
         cmp.governed_goodput > cmp.best_static_goodput, false,
         fmt(cmp.governed_goodput, 1) + " vs " + fmt(cmp.best_static_goodput, 1) +
             " req/s (" + cmp.best_static_soft.to_string() + ")"});

    const double paper_wl[] = {5800, 6200};
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const core::AllocationReport& rep = reports[i];
      const std::string hw = alg_[i].base_config().hw.to_string();
      out.accuracy.push_back(
          "table1 " + hw + " saturation: paper " + fmt(paper_wl[i], 0) +
          " users, simulated " + std::to_string(rep.min_jobs.saturation_workload) +
          " (" + fmt(static_cast<double>(rep.min_jobs.saturation_workload) -
                         paper_wl[i], 0) +
          "); recommended " + rep.recommended.to_string());
    }
    out.accuracy.push_back(
        "table1 1/2/1/2 threads per Tomcat: paper ~13, simulated " +
        std::to_string(reports[0].recommended.app_threads));
    out.accuracy.push_back(
        "table1 1/4/1/4 DB connections per Tomcat: paper ~8, simulated " +
        std::to_string(reports[1].recommended.app_connections));
    return out;
  }

  TrialRef first_trial() const override {
    const core::AlgorithmConfig cfg;
    const exp::SoftConfig soft = exp::RunnerAdapter::to_soft_config(cfg.initial);
    return {alg_[0], soft, cfg.start_workload,
            label_of("alg", alg_[0], soft, cfg.start_workload)};
  }
  /// The flash crowd's first static candidate, which every pass runs traced
  /// at rate 1.0.
  TrialRef probe_trial() const override {
    const exp::SoftConfig soft = candidates().front();
    return {static_flash(), soft, kFlashUsers,
            label_of("flash-static", flash_, soft, kFlashUsers)};
  }

 private:
  static constexpr std::size_t kFlashUsers = 7000;

  /// bench_governor's flash crowd (1/4/1/4, 2500 -> 7000 -> 2500 users,
  /// SLO 1 s), traced at rate 1.0.
  static exp::Experiment flash_experiment(std::uint64_t seed) {
    exp::ExperimentOptions o = compressed(seed);
    o.client.ramp_up_s = 5.0;
    o.client.runtime_s = 150.0;
    o.client.ramp_down_s = 3.0;
    o.sla_threshold_s = 1.0;
    o.client.load_schedule =
        workload::flash_crowd_schedule(2500, kFlashUsers, 60.0, 50.0);
    o.set_trace_sample_rate(1.0);
    return experiment("1/4/1/4", o);
  }
  static std::vector<exp::SoftConfig> candidates() {
    return {exp::SoftConfig{400, 200, 200}, exp::SoftConfig{200, 100, 100},
            exp::SoftConfig{150, 60, 60}, exp::SoftConfig{100, 30, 30}};
  }
  exp::Experiment static_flash() const {
    exp::ExperimentOptions o = flash_.options();
    o.governor.enabled = false;
    return exp::Experiment(flash_.base_config(), o);
  }
  exp::Experiment governed_flash() const {
    exp::ExperimentOptions o = flash_.options();
    o.governor = core::GovernorConfig{};
    o.governor.enabled = true;
    return exp::Experiment(flash_.base_config(), o);
  }

  /// exp::governed_sweep, or its span-run equivalent: the static grid as one
  /// executor batch, the best by goodput, then one governed trial on the
  /// caller.
  exp::GovernedComparison governed(std::size_t jobs, SpanRun* spans) const {
    if (spans == nullptr) {
      return exp::governed_sweep(flash_, candidates(), kFlashUsers,
                                 candidates().front(), core::GovernorConfig{},
                                 jobs);
    }
    exp::GovernedComparison out;
    out.sla_threshold_s = flash_.options().sla_threshold_s;
    const exp::Experiment stat = static_flash();
    std::vector<TrialRef> tasks;
    for (const auto& s : candidates()) {
      tasks.push_back({stat, s, kFlashUsers,
                       label_of("flash-static", flash_, s, kFlashUsers)});
    }
    std::vector<exp::RunResult> grid = run_spanned(tasks, *spans);
    for (std::size_t s = 0; s < grid.size(); ++s) {
      const double g = grid[s].goodput(out.sla_threshold_s);
      if (s == 0 || g > out.best_static_goodput) {
        out.best_static_goodput = g;
        out.best_static_soft = candidates()[s];
        out.best_static = std::move(grid[s]);
      }
    }
    const exp::Experiment gov = governed_flash();
    out.governed = std::move(
        run_spanned({{gov, candidates().front(), kFlashUsers, "flash-governed"}},
                    *spans, /*on_caller=*/true)
            .front());
    out.governed_goodput = out.governed.goodput(out.sla_threshold_s);
    return out;
  }

  std::vector<exp::Experiment> alg_;
  exp::Experiment flash_;
};

}  // namespace

std::uint64_t replay_digest(const Replay& rp, TrialStats* stats) {
  const TrialRef& t = rp.trial;
  const exp::RunResult r =
      stats != nullptr ? run_trial(t.exp, t.soft, t.users, stats, nullptr, 0)
                       : t.exp.run(t.soft, t.users);
  return rp.observation
             ? digest_of(exp::RunnerAdapter::to_observation(r, kTuneSlo))
             : digest_of(r);
}

std::vector<TrialRef> scaling_subset(std::uint64_t seed, std::size_t max_jobs) {
  const PaperGrid paper(seed);
  const Grid& fig4 = paper.grids().front();
  const std::vector<TrialRef> all = fig4.trials();
  // lcm(1..max_jobs) trials split into equal rounds at every width, so an
  // ideal executor scales linearly; capped at all of Fig 4.
  std::size_t k = 1;
  for (std::size_t n = 2; n <= max_jobs && k <= all.size(); ++n) {
    k = std::lcm(k, n);
  }
  k = std::min(k, all.size());
  std::vector<TrialRef> out;
  for (std::size_t u = 0; u < fig4.users.size(); ++u) {
    for (std::size_t p = 0; p < fig4.softs.size() && out.size() < k; ++p) {
      out.push_back(all[p * fig4.users.size() + u]);
    }
  }
  return out;
}

std::uint64_t default_seed() { return workload::ClientConfig{}.seed; }

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_grid") return std::make_unique<PaperGrid>(seed);
  if (name == "think_heavy") return std::make_unique<ThinkHeavy>(seed);
  if (name == "tune_loop") return std::make_unique<TuneLoop>(seed);
  return nullptr;
}

}  // namespace softbench
