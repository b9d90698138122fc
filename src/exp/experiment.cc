#include "exp/experiment.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/run_context.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "soft/pool_monitor.h"

namespace softres::exp {

namespace {

[[noreturn]] void bad_env(const char* knob, const char* value,
                          const char* expected) {
  throw std::invalid_argument(std::string(knob) + "='" + value +
                              "': expected " + expected);
}

/// An on/off switch: unset (nullopt), exactly "0" or exactly "1".
std::optional<bool> env_switch(const char* knob) {
  const char* value = std::getenv(knob);
  if (value == nullptr) return std::nullopt;
  const std::string v = value;
  if (v != "0" && v != "1") bad_env(knob, value, "0 or 1");
  return v == "1";
}

}  // namespace

ExperimentOptions ExperimentOptions::from_env() {
  return from_env(ExperimentOptions{});
}

ExperimentOptions ExperimentOptions::from_env(ExperimentOptions base) {
  ExperimentOptions opts = std::move(base);
  if (env_switch("SOFTRES_FULL").value_or(false)) {
    opts.client.ramp_up_s = 480.0;   // 8 minutes
    opts.client.runtime_s = 720.0;   // 12 minutes
    opts.client.ramp_down_s = 30.0;
  }
  if (const char* rate = std::getenv("SOFTRES_TRACE_RATE")) {
    char* end = nullptr;
    const double v = std::strtod(rate, &end);
    // The negated range test also rejects nan.
    if (end == rate || *end != '\0' || !(v >= 0.0 && v <= 1.0)) {
      bad_env("SOFTRES_TRACE_RATE", rate, "a sample rate in [0, 1]");
    }
    opts.client.trace_sample_rate = v;
  }
  // Base seed of the seed-derivation chain: every trial stream hashes off
  // this via RunContext::derive_seed, so one env switch re-seeds every bench
  // and example without touching the per-trial identity hashing.
  if (const char* seed = std::getenv("SOFTRES_SEED")) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(seed, &end, 10);
    // strtoull skips blanks and wraps a leading '-'; demand plain digits.
    if (seed[0] < '0' || seed[0] > '9' || *end != '\0' || errno == ERANGE) {
      bad_env("SOFTRES_SEED", seed, "an unsigned 64-bit integer");
    }
    opts.client.seed = v;
  }
  if (const char* report = std::getenv("SOFTRES_REPORT_HTML")) {
    opts.report_html = report;
  }
  if (const std::optional<bool> profile = env_switch("SOFTRES_PROFILE")) {
    opts.profile = *profile;
  }
  return opts;
}

double RunResult::goodput(double threshold_s) const {
  return sla(threshold_s).goodput;
}

metrics::SlaSplit RunResult::sla(double threshold_s) const {
  return metrics::SlaModel(threshold_s).split(response_times, window_s);
}

std::vector<std::string> RunResult::saturated_hardware() const {
  std::vector<std::string> out;
  for (const auto& c : cpus) {
    if (c.saturated) out.push_back(c.name);
  }
  return out;
}

std::vector<std::string> RunResult::saturated_soft() const {
  std::vector<std::string> out;
  for (const auto& p : pools) {
    if (p.saturated) out.push_back(p.name);
  }
  return out;
}

const sim::TimeSeries* RunResult::find_series(const std::string& name) const {
  for (const auto& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const CpuStat* RunResult::find_cpu(const std::string& name) const {
  for (const auto& c : cpus) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const ServerOps* RunResult::find_server(const std::string& name) const {
  for (const auto& s : servers) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const PoolStat* RunResult::find_pool(const std::string& name) const {
  for (const auto& p : pools) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const TenantStat* RunResult::find_tenant(const std::string& name) const {
  for (const auto& t : tenants) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

Experiment::Experiment(TestbedConfig base, ExperimentOptions opts)
    : base_(std::move(base)), opts_(std::move(opts)) {}

namespace {

CpuStat condense_cpu(const Testbed& bed, const std::string& node_name) {
  const sim::SimTime lo = bed.measure_start();
  const sim::SimTime hi = bed.measure_end();
  CpuStat stat;
  stat.name = node_name + ".cpu";
  const sim::TimeSeries* util = bed.sampler().find(stat.name);
  if (util != nullptr) stat.util_pct = util->mean_between(lo, hi);
  const sim::TimeSeries* gc = bed.sampler().find(node_name + ".gc");
  if (gc != nullptr) stat.gc_util_pct = gc->mean_between(lo, hi);
  stat.saturated = stat.util_pct >= kCpuSaturationPct;
  return stat;
}

PoolStat condense_pool(const Testbed& bed, const soft::Pool& pool,
                       const std::string& series_name) {
  const sim::SimTime lo = bed.measure_start();
  const sim::SimTime hi = bed.measure_end();
  PoolStat stat;
  stat.name = pool.name();
  stat.capacity = pool.capacity();
  stat.mean_wait_ms = 1000.0 * pool.mean_wait_time();
  const sim::TimeSeries* util = bed.sampler().find(series_name);
  if (util != nullptr) {
    stat.util_pct = util->mean_between(lo, hi);
    stat.saturated = soft::is_saturated(*util, lo, hi);
  }
  return stat;
}

ServerOps condense_server(const tier::Server& server) {
  ServerOps ops;
  ops.name = server.name();
  ops.throughput = server.window_throughput();
  ops.mean_rt_s = server.window_mean_rt();
  ops.avg_jobs = server.window_avg_jobs();
  return ops;
}

/// "out.html" + (400/6/60, 6200) -> "out_s400-6-60_u6200.html": one report
/// file per trial even when a sweep shares one SOFTRES_REPORT_HTML value.
std::string report_path(const std::string& base, const SoftConfig& soft,
                        std::size_t users) {
  std::string suffix = "_s" + std::to_string(soft.apache_threads) + "-" +
                       std::to_string(soft.tomcat_threads) + "-" +
                       std::to_string(soft.db_connections) + "_u" +
                       std::to_string(users);
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + suffix + ".html";
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

}  // namespace

std::uint64_t Experiment::trial_seed(const SoftConfig& soft,
                                     std::size_t users) const {
  TestbedConfig cfg = base_;
  cfg.soft = soft;
  return RunContext::derive_seed(opts_.client.seed, cfg.hw, cfg.soft, users);
}

RunResult Experiment::run(const SoftConfig& soft, std::size_t users) const {
  TestbedConfig cfg = base_;
  cfg.soft = soft;
  workload::ClientConfig client = opts_.client;
  client.users = users;

  // Install the profiler ledger before the context is built so topology and
  // registry construction land in the kSetup phase; the testbed advances the
  // phase at its own (simulated-time) transitions. The ledger is installed
  // on *this* thread only, which is the thread that runs the whole trial —
  // parallel sweep workers each profile their own trials independently, so
  // the count axis stays bit-identical to a serial sweep.
  obs::Profiler profiler;
  std::optional<prof::InstallGuard> profile_guard;
  if (opts_.profile) profile_guard.emplace(&profiler.ledger());
  // Always reset the thread's phase marker: the bench allocation ledger
  // attributes by it whether or not a profiler ledger is installed.
  SOFTRES_PROF_PHASE(kSetup);

  // One trial = one context. The trial seed is a pure function of the
  // trial's identity, so sweeps can run these in any order — or in
  // parallel — and reproduce the serial results bit for bit. The client
  // farm's user streams and trace sampling hash off the same trial seed.
  RunContext ctx(opts_.client.seed, cfg, users, opts_.governor,
                 opts_.partition);
  client.seed = ctx.trial_seed();
  Testbed bed(ctx, cfg, client);
  bed.run();

  RunResult r;
  r.hw = cfg.hw;
  r.soft = soft;
  r.users = users;
  r.window_s = client.runtime_s;
  r.trial_seed = ctx.trial_seed();
  r.response_times = bed.farm().response_times();
  r.throughput = bed.farm().window_throughput();
  r.req_ratio = bed.workload().req_ratio();

  for (const auto& node : bed.nodes()) {
    r.cpus.push_back(condense_cpu(bed, node->name()));
  }
  for (const auto& a : bed.apaches()) {
    PoolStat workers =
        condense_pool(bed, a->worker_pool(), a->name() + ".workers.util");
    r.pools.push_back(workers);
    // For the web tier the operational "RTT" is the worker busy time
    // (response path + FIN wait) and the concurrency is worker occupancy:
    // that is what the thread pool has to cover.
    ServerOps ops = condense_server(*a);
    ops.mean_rt_s = a->window_mean_busy_s();
    ops.avg_jobs = workers.util_pct / 100.0 *
                   static_cast<double>(a->worker_pool().capacity());
    r.servers.push_back(ops);
  }
  for (const auto& t : bed.tomcats()) {
    r.pools.push_back(
        condense_pool(bed, t->thread_pool(), t->name() + ".threads.util"));
    r.pools.push_back(
        condense_pool(bed, t->connection_pool(), t->name() + ".dbconns.util"));
    r.servers.push_back(condense_server(*t));
    r.tomcat_gc_seconds += bed.window_gc_seconds(t->jvm());
  }
  for (const auto& c : bed.cjdbcs()) {
    r.servers.push_back(condense_server(*c));
    r.cjdbc_gc_seconds += bed.window_gc_seconds(c->jvm());
  }
  for (const auto& m : bed.mysqls()) {
    r.servers.push_back(condense_server(*m));
  }
  if (opts_.keep_series) {
    for (std::size_t i = 0; i < bed.sampler().probes(); ++i) {
      r.series.push_back(bed.sampler().series(i));
    }
  }
  const workload::ClientFarm& farm = bed.farm();
  for (std::size_t t = 0; t < farm.num_tenants(); ++t) {
    TenantStat ts;
    ts.name = farm.tenant(t).name;
    ts.users = farm.tenant(t).users;
    ts.sla_threshold_s = farm.tenant(t).sla_threshold_s;
    ts.throughput = farm.tenant_throughput(t);
    ts.goodput = farm.tenant_goodput(t, ts.sla_threshold_s);
    ts.badput = ts.throughput - ts.goodput;
    ts.mean_rt_s = farm.tenant_response_times(t).mean();
    r.tenants.push_back(std::move(ts));
  }
  r.metrics = ctx.registry().snapshot(ctx.simulator().now());
  ctx.traces().collect(bed.farm().traced_requests());
  r.diagnosis = bed.diagnoser().diagnosis();
  // Tail attribution and its diagnosis corroboration: pure functions of the
  // traces (themselves a function of the trial seed), so bit-identical
  // whether the sweep ran serial or across SOFTRES_JOBS workers.
  obs::TailConfig tail_cfg;
  tail_cfg.slo_threshold_s = opts_.sla_threshold_s;
  r.tail = obs::TailAttributor(tail_cfg).attribute(ctx.traces().traces());
  obs::corroborate(r.diagnosis, r.tail);
  if (opts_.profile) r.profile = profiler.snapshot();
  if (bed.governor() != nullptr) r.governor_actions = bed.governor()->actions();

  if (!opts_.report_html.empty()) {
    obs::ReportMeta meta;
    meta.title = "Trial " + cfg.hw.to_string() + " / " + soft.to_string() +
                 " @ " + std::to_string(users) + " users";
    meta.topology = cfg.hw.to_string();
    meta.allocation = soft.to_string();
    meta.workload = std::to_string(users) + " users";
    meta.measure_start = bed.measure_start();
    meta.measure_end = bed.measure_end();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f req/s", r.throughput);
    meta.extra.emplace_back("throughput", buf);
    std::snprintf(buf, sizeof(buf), "%.1f req/s",
                  r.goodput(opts_.sla_threshold_s));
    meta.extra.emplace_back(
        "goodput@" + std::to_string(opts_.sla_threshold_s) + "s", buf);
    std::snprintf(buf, sizeof(buf), "%.0f ms",
                  1000.0 * r.response_times.mean());
    meta.extra.emplace_back("mean response time", buf);
    meta.extra.emplace_back("trial seed", std::to_string(r.trial_seed));
    for (const core::GovernorAction& act : r.governor_actions) {
      meta.resizes.push_back(
          obs::ReportMeta::ResizeMark{act.at, act.pool, act.from, act.to});
    }
    const obs::LatencyBreakdown breakdown = ctx.traces().breakdown();
    const std::string path = report_path(opts_.report_html, soft, users);
    if (!obs::write_flight_recorder_html(
            path, meta, bed.timeline(), r.diagnosis,
            breakdown.rows.empty() ? nullptr : &breakdown,
            r.profile.enabled ? &r.profile : nullptr,
            r.tail.empty() ? nullptr : &r.tail,
            r.tail.empty() ? nullptr : &ctx.traces())) {
      throw std::runtime_error("SOFTRES_REPORT_HTML: cannot write report '" +
                               path + "'");
    }
  }

  r.traces = std::move(ctx.traces());
  return r;
}

}  // namespace softres::exp
