#include "trial.h"

#include <fstream>
#include <utility>

#include "alloc_count.h"
#include "exp/run_context.h"
#include "exp/testbed.h"
#include "host_clock.h"
#include "obs/tail.h"
#include "soft/pool_monitor.h"
#include "support/prof.h"

namespace softbench {

using namespace softres;

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_++;
}

void SpanLog::add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

void SpanLog::add(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trial\":" << s.trial << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

// The condense helpers of exp::Experiment::run, over the same public
// accessors.
exp::CpuStat condense_cpu(const exp::Testbed& bed, const std::string& node) {
  const sim::SimTime lo = bed.measure_start();
  const sim::SimTime hi = bed.measure_end();
  exp::CpuStat stat;
  stat.name = node + ".cpu";
  if (const sim::TimeSeries* util = bed.sampler().find(stat.name)) {
    stat.util_pct = util->mean_between(lo, hi);
  }
  if (const sim::TimeSeries* gc = bed.sampler().find(node + ".gc")) {
    stat.gc_util_pct = gc->mean_between(lo, hi);
  }
  stat.saturated = stat.util_pct >= exp::kCpuSaturationPct;
  return stat;
}

exp::PoolStat condense_pool(const exp::Testbed& bed, const soft::Pool& pool,
                            const std::string& series) {
  const sim::SimTime lo = bed.measure_start();
  const sim::SimTime hi = bed.measure_end();
  exp::PoolStat stat;
  stat.name = pool.name();
  stat.capacity = pool.capacity();
  stat.mean_wait_ms = 1000.0 * pool.mean_wait_time();
  if (const sim::TimeSeries* util = bed.sampler().find(series)) {
    stat.util_pct = util->mean_between(lo, hi);
    stat.saturated = soft::is_saturated(*util, lo, hi);
  }
  return stat;
}

exp::ServerOps condense_server(const tier::Server& server) {
  exp::ServerOps ops;
  ops.name = server.name();
  ops.throughput = server.window_throughput();
  ops.mean_rt_s = server.window_mean_rt();
  ops.avg_jobs = server.window_avg_jobs();
  return ops;
}

// 1 Hz simulated-time probe of queue depths; read-only, so the trial's
// results stay bit-identical (the span run's digest check holds it to that).
struct DepthProbe {
  exp::Testbed* bed = nullptr;
  TrialStats* stats = nullptr;
  std::uint64_t fired = 0;

  void tick() {
    ++fired;
    TrialStats& s = *stats;
    sim::Simulator& sim = bed->simulator();
    const std::size_t pending = sim.events_pending();
    ++s.depth_samples;
    s.pending_sum += static_cast<double>(pending);
    if (pending > s.pending_max) s.pending_max = pending;
    for (const auto& node : bed->nodes()) {
      const double n = static_cast<double>(node->cpu().jobs_in_service());
      s.cpu_jobs_sq += n * n;
      s.cpu_jobs_sum += n;
    }
    auto waiters = [&s](const soft::Pool& p) {
      const double w = static_cast<double>(p.waiting());
      s.waiters_sq += w * w;
      s.waiters_sum += w;
    };
    for (const auto& a : bed->apaches()) waiters(a->worker_pool());
    for (const auto& t : bed->tomcats()) {
      waiters(t->thread_pool());
      waiters(t->connection_pool());
    }
    sim.schedule(1.0, [this] { tick(); });
  }
};

double ms_between(std::int64_t a, std::int64_t b) {
  return 1e-6 * static_cast<double>(b - a);
}

void read_counters(const exp::Testbed& bed, const exp::RunResult& r,
                   TrialStats& s) {
  for (const auto& node : bed.nodes()) s.cpu_jobs += node->cpu().jobs_completed();
  auto pool = [&s](const soft::Pool& p) {
    s.acquires += p.total_acquired();
    s.drained += p.drained_total();
  };
  for (const auto& a : bed.apaches()) {
    pool(a->worker_pool());
    s.completed[0] += a->window_completed();
  }
  for (const auto& t : bed.tomcats()) {
    pool(t->thread_pool());
    pool(t->connection_pool());
    s.gc_collections += t->jvm().collections();
    s.completed[1] += t->window_completed();
  }
  for (const auto& c : bed.cjdbcs()) {
    s.gc_collections += c->jvm().collections();
    s.completed[2] += c->window_completed();
  }
  for (const auto& m : bed.mysqls()) s.completed[3] += m->window_completed();
  s.pages = bed.farm().pages_started();
  s.traced = bed.context().traces().size();
  s.resizes = r.governor_actions.size();
}

}  // namespace

exp::RunResult run_trial(const exp::Experiment& e, const exp::SoftConfig& soft,
                         std::size_t users, TrialStats* stats, SpanLog* log,
                         std::uint64_t parent) {
  const exp::ExperimentOptions& opts = e.options();
  exp::TestbedConfig cfg = e.base_config();
  cfg.soft = soft;
  workload::ClientConfig client = opts.client;
  client.users = users;

  const AllocCounts allocs0 = thread_allocs();
  const std::int64_t t_start = host_ns();
  SOFTRES_PROF_PHASE(kSetup);
  exp::RunContext ctx(opts.client.seed, cfg, users, opts.governor,
                      opts.partition);
  client.seed = ctx.trial_seed();
  exp::Testbed bed(ctx, cfg, client);
  const std::int64_t t_built = host_ns();
  const AllocCounts allocs_built = thread_allocs();

  DepthProbe probe;
  if (stats != nullptr) {
    probe.bed = &bed;
    probe.stats = stats;
    ctx.simulator().schedule(0.5, [p = &probe] { p->tick(); });
  }
  bed.run();
  const std::int64_t t_ran = host_ns();

  exp::RunResult r;
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
    exp::PoolStat workers =
        condense_pool(bed, a->worker_pool(), a->name() + ".workers.util");
    r.pools.push_back(workers);
    exp::ServerOps ops = condense_server(*a);
    ops.mean_rt_s = a->window_mean_busy_s();
    ops.avg_jobs = workers.util_pct / 100.0 *
                   static_cast<double>(a->worker_pool().capacity());
    r.servers.push_back(ops);
  }
  for (const auto& t : bed.tomcats()) {
    r.pools.push_back(
        condense_pool(bed, t->thread_pool(), t->name() + ".threads.util"));
    r.pools.push_back(condense_pool(bed, t->connection_pool(),
                                    t->name() + ".dbconns.util"));
    r.servers.push_back(condense_server(*t));
    r.tomcat_gc_seconds += bed.window_gc_seconds(t->jvm());
  }
  for (const auto& c : bed.cjdbcs()) {
    r.servers.push_back(condense_server(*c));
    r.cjdbc_gc_seconds += bed.window_gc_seconds(c->jvm());
  }
  for (const auto& m : bed.mysqls()) r.servers.push_back(condense_server(*m));
  const std::int64_t t_series = host_ns();
  if (opts.keep_series) {
    for (std::size_t i = 0; i < bed.sampler().probes(); ++i) {
      r.series.push_back(bed.sampler().series(i));
    }
  }
  const std::int64_t t_snapshot = host_ns();
  r.metrics = ctx.registry().snapshot(ctx.simulator().now());
  const std::int64_t t_collect = host_ns();
  ctx.traces().collect(bed.farm().traced_requests());
  r.diagnosis = bed.diagnoser().diagnosis();
  const std::int64_t t_attribute = host_ns();
  obs::TailConfig tail_cfg;
  tail_cfg.slo_threshold_s = opts.sla_threshold_s;
  r.tail = obs::TailAttributor(tail_cfg).attribute(ctx.traces().traces());
  const std::int64_t t_attributed = host_ns();
  obs::corroborate(r.diagnosis, r.tail);
  if (bed.governor() != nullptr) r.governor_actions = bed.governor()->actions();

  if (stats != nullptr) read_counters(bed, r, *stats);
  r.traces = std::move(ctx.traces());
  const std::int64_t t_end = host_ns();
  const AllocCounts allocs1 = thread_allocs();
  if (stats == nullptr) return r;

  TrialStats& s = *stats;
  s.setup_allocs = allocs_built.setup - allocs0.setup;
  s.steady_allocs = allocs1.steady - allocs0.steady;
  s.events = ctx.simulator().events_executed() - probe.fired;
  s.start_ns = t_start;
  s.end_ns = t_end;
  s.build_ms = ms_between(t_start, t_built);
  s.run_ms = ms_between(t_built, t_ran);
  s.condense_ms = ms_between(t_ran, t_end);
  s.snapshot_ms = ms_between(t_snapshot, t_collect);
  s.attribute_ms = ms_between(t_attribute, t_attributed);
  if (log != nullptr) {
    const std::uint64_t root = log->next_id();
    std::vector<Span> spans = {
        {root, parent, root, "trial", t_start, t_end},
        {log->next_id(), root, root, "exp.build", t_start, t_built},
        {log->next_id(), root, root, "exp.run", t_built, t_ran},
        {log->next_id(), root, root, "exp.condense", t_ran, t_end},
    };
    const std::uint64_t condense = spans.back().id;
    spans.push_back({log->next_id(), condense, root, "exp.series_copy",
                     t_series, t_snapshot});
    spans.push_back({log->next_id(), condense, root, "obs.snapshot",
                     t_snapshot, t_collect});
    spans.push_back({log->next_id(), condense, root, "obs.collect", t_collect,
                     t_attribute});
    spans.push_back({log->next_id(), condense, root, "obs.tail_attribute",
                     t_attribute, t_attributed});
    log->add(spans);
  }
  return r;
}

double time_to_first_run(const exp::Experiment& e, const exp::SoftConfig& soft,
                         std::size_t users, std::int64_t t0_ns) {
  const exp::ExperimentOptions& opts = e.options();
  exp::TestbedConfig cfg = e.base_config();
  cfg.soft = soft;
  workload::ClientConfig client = opts.client;
  client.users = users;
  SOFTRES_PROF_PHASE(kSetup);
  exp::RunContext ctx(opts.client.seed, cfg, users, opts.governor,
                      opts.partition);
  client.seed = ctx.trial_seed();
  exp::Testbed bed(ctx, cfg, client);
  return seconds_between(t0_ns, host_ns());
}

}  // namespace softbench
