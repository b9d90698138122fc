// softbench driver. Modes (first argument):
//   run     uninstrumented batches for --seconds; end-to-end metrics
//   spans   one uninstrumented and one spanned batch plus the layer probes;
//           per-layer metrics (softbench_spans only)
//   setup   host time from --t0-ns (the parent's stamp before it spawned
//           this process) to the first trial's Testbed::run
//   record  re-record the goldens at the default seed (explicit only)
// Every mode but record prints one JSON object as its last stdout line.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "digest.h"
#include "exp/parallel.h"
#include "host_clock.h"
#include "layer_probes.h"
#include "sim/stats.h"
#include "workloads.h"

namespace softbench {
namespace {

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = default_seed();
  double seconds = 10.0;
  std::size_t jobs = 1;  // executor width: the CPUs this process may run on
  std::string goldens = "softbench/goldens";
  std::string spans_out;
  std::int64_t t0_ns = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "softbench: " << why
            << "\nusage: softbench run|spans|setup|record --workload W "
               "[--seed N] [--seconds S] [--goldens DIR] "
               "[--spans-out FILE] [--t0-ns NS]\n";
  std::exit(2);
}

/// nproc: the CPUs in this process's affinity mask, which a CPU mask or a
/// container quota narrows (hardware_concurrency counts every CPU).
std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing mode");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed " + v);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || a.seconds < 0) {
        usage("bad --seconds " + v);
      }
    } else if (k == "--goldens") {
      a.goldens = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else if (k == "--t0-ns") {
      a.t0_ns = std::strtoll(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --t0-ns " + v);
    } else {
      usage("unknown option " + k);
    }
  }
  a.jobs = affinity_cpus();
  return a;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Tally of checked outputs: every digest compared and every gated check.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cout << "[FAIL] " << what << "\n";
    }
  }
};

/// At the default seed, compare every digest of a pass with the goldens.
void verify_goldens(const Args& a, const Outcome& pass, Verdict& v) {
  const std::string path = a.goldens + "/" + a.workload + ".txt";
  Goldens g;
  if (!g.load(path)) {
    v.check(false, "no goldens at " + path);
    return;
  }
  const bool same_toolchain = g.toolchain == toolchain();
  for (const Record& r : pass.records) {
    auto it = g.by_label.find(r.label);
    if (it == g.by_label.end()) {
      std::cout << "[unverified] " << r.label << " has no golden\n";
      continue;
    }
    v.check(it->second == r.digest,
            r.label + ": digest " + hex(r.digest) + " != golden " +
                hex(it->second) +
                (same_toolchain ? ""
                                : " (goldens from " + g.toolchain +
                                      ", this build " + toolchain() + ")"));
  }
}

/// `k` replayable records of a pass, evenly spaced from first to last.
std::vector<std::size_t> replay_subset(const Outcome& pass, std::size_t k) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < pass.replay.size(); ++i) {
    if (pass.replay[i]) idx.push_back(i);
  }
  k = std::min(k, idx.size());
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < k; ++j) {
    out.push_back(idx[k == 1 ? 0 : j * (idx.size() - 1) / (k - 1)]);
  }
  return out;
}

/// Re-run `k` trials of a jobs=N pass serially (jobs=1) on the calling
/// thread; each must reproduce its jobs=N digest.
void verify_replay(const Outcome& pass, std::size_t k, Verdict& v) {
  for (std::size_t i : replay_subset(pass, k)) {
    const std::uint64_t d = replay_digest(*pass.replay[i], nullptr);
    v.check(d == pass.records[i].digest,
            pass.records[i].label + ": jobs=1 digest " + hex(d) +
                " != jobs=N " + hex(pass.records[i].digest));
  }
}

/// Later passes of the same seed must reproduce the first bit for bit.
void verify_repeat(const Outcome& first, const Outcome& again, Verdict& v) {
  v.check(first.records.size() == again.records.size(),
          "repeat pass ran a different number of trials");
  for (std::size_t i = 0; i < std::min(first.records.size(), again.records.size());
       ++i) {
    v.check(first.records[i].label == again.records[i].label &&
                first.records[i].digest == again.records[i].digest,
            again.records[i].label + ": repeat digest differs");
  }
}

/// A pass at another jobs count: Algorithm 1 speculates jobs-1 points ahead,
/// so the two passes share most but not all trials; every shared label must
/// carry the same digest, and so must every report.
void verify_shared(const Outcome& a, const Outcome& b, Verdict& v) {
  std::map<std::string, std::uint64_t> by_label;
  for (const Record& r : a.records) by_label[r.label] = r.digest;
  std::size_t shared = 0;
  for (const Record& r : b.records) {
    auto it = by_label.find(r.label);
    if (it == by_label.end()) continue;
    ++shared;
    v.check(it->second == r.digest, r.label + ": digest differs across jobs");
  }
  v.check(shared * 2 > b.records.size(), "passes share too few trials");
}

void report_checks(const Args& a, const Outcome& o, Verdict& v) {
  const bool locked = a.seed == default_seed();
  for (const Check& c : o.checks) {
    const bool gated = locked || c.any_seed;
    std::cout << (c.ok ? "[check OK]   " : gated ? "[check FAIL] " : "[check --]   ")
              << c.name << ": " << c.detail
              << (gated ? "" : " (informational at a non-golden seed)") << "\n";
    if (gated) v.check(c.ok, c.name);
  }
  for (const std::string& line : o.accuracy) {
    std::cout << "[accuracy] " << line << " (simulated, "
              << (locked ? "digest-locked" : "seed " + std::to_string(a.seed))
              << ")\n";
  }
}

using Metric = std::pair<std::string, std::pair<double, std::string>>;

std::string result_json(const Verdict& v, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (v.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<std::size_t>(v.attempted, 1)
     << ", \"failed\": " << v.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
       << num(metrics[i].second.first) << ", \"unit\": \""
       << metrics[i].second.second << "\"}";
  }
  os << "}}";
  return os.str();
}

constexpr std::size_t kReplays = 3;
constexpr std::size_t kOverheadReps = 3;

int mode_run(const Args& a, const Workload& w) {
  Verdict v;
  // The first pass warms the allocator's arenas and the caches; it is
  // checked like every other pass but not timed into the medians.
  const Outcome first = w.run(a.jobs, nullptr);
  std::cout << "warm-up pass: " << first.trials << " trials in "
            << num(first.wall_s) << " s wall\n";
  std::vector<double> tps, cpt;
  const std::int64_t start = host_ns();
  do {
    const Outcome o = w.run(a.jobs, nullptr);
    tps.push_back(static_cast<double>(o.trials) / o.wall_s);
    cpt.push_back(o.cpu_s / static_cast<double>(o.trials));
    std::cout << "pass " << tps.size() << ": " << o.trials << " trials in "
              << num(o.wall_s) << " s wall, " << num(o.cpu_s) << " s CPU\n";
    verify_repeat(first, o, v);
  } while (seconds_between(start, host_ns()) < a.seconds);
  const double rss = peak_rss_mb();

  if (a.seed == default_seed()) {
    verify_goldens(a, first, v);
  } else {
    verify_replay(first, kReplays, v);
  }
  report_checks(a, first, v);
  std::cout << result_json(v, {{"trials_per_s", {median(tps), "trials/s"}},
                               {"cpu_s_per_trial", {median(cpt), "s"}},
                               {"peak_rss_mb", {rss, "MB"}}})
            << std::endl;
  return 0;
}

int mode_spans(const Args& a, const Workload& w) {
  if (!allocs_counted()) usage("the spans mode runs in softbench_spans");
  Verdict v;
  // Executor scaling is defined on the paper_grid subset, whichever workload
  // this span run measures; its jobs=1..N passes double as a determinism
  // check at this seed, and run first, so the uninstrumented and the spanned
  // pass below both start warm.
  const UslFit usl = fit_usl(scaling_subset(a.seed, a.jobs), a.jobs);
  v.check(usl.mismatches == 0, "scaling subset: jobs=N digests differ from jobs=1");
  const Outcome plain = w.run(a.jobs, nullptr);
  SpanRun sp;
  sp.jobs = a.jobs;
  const Outcome spanned = w.run(a.jobs, &sp);
  if (a.seed == default_seed()) verify_goldens(a, plain, v);
  // run_trial must mirror Experiment::run exactly.
  verify_repeat(plain, spanned, v);
  report_checks(a, plain, v);

  // Exact pass: a few trials serially on a fresh thread. Allocation counts
  // depend on the thread's callback freelists, so they repeat exactly only
  // in a fixed serial order; the digests double as the jobs=1 check.
  std::vector<TrialStats> exact;
  std::thread serial([&] {
    for (std::size_t i : replay_subset(plain, kReplays)) {
      exact.emplace_back();
      const std::uint64_t d = replay_digest(*plain.replay[i], &exact.back());
      v.check(d == plain.records[i].digest,
              plain.records[i].label + ": jobs=1 digest differs from jobs=N");
    }
  });
  serial.join();
  auto exact_mean = [&exact](auto field) {
    double sum = 0;
    for (const TrialStats& t : exact) sum += static_cast<double>(field(t));
    return exact.empty() ? 0.0 : sum / static_cast<double>(exact.size());
  };

  const auto& ts = sp.trials;
  const double n = static_cast<double>(ts.size());
  auto mean = [&](auto field) {
    double sum = 0;
    for (const TrialStats& t : ts) sum += static_cast<double>(field(t));
    return ts.empty() ? 0.0 : sum / n;
  };
  auto ratio = [](double num_, double den) { return den > 0 ? num_ / den : 0.0; };
  softres::sim::SampleSet trial_ms;
  double busy_ms = 0, events = 0, run_ms = 0, pending = 0, samples = 0;
  double cpu_sq = 0, cpu_sum = 0, w_sq = 0, w_sum = 0;
  std::size_t pending_max = 0;
  for (const TrialStats& t : ts) {
    trial_ms.add(t.trial_ms());
    busy_ms += t.trial_ms();
    events += static_cast<double>(t.events);
    run_ms += t.run_ms;
    pending += t.pending_sum;
    samples += static_cast<double>(t.depth_samples);
    pending_max = std::max(pending_max, t.pending_max);
    cpu_sq += t.cpu_jobs_sq;
    cpu_sum += t.cpu_jobs_sum;
    w_sq += t.waiters_sq;
    w_sum += t.waiters_sum;
  }
  double longest_ms = 0;
  for (double ms : sp.batch_longest_ms) longest_ms += ms;
  const double wall_ms = 1000.0 * spanned.wall_s;
  const double pending_mean = ratio(pending, samples);
  const double cpu_depth = ratio(cpu_sq, cpu_sum);
  const double waiter_depth = ratio(w_sq, w_sum);

  const Overheads ov = measure_overheads(w.probe_trial(), a.jobs, kOverheadReps);
  v.check(ov.profile_neutral, "profiling changed the probe trial's results");

  std::vector<Metric> m = {
      {"exp.trials", {n, "count"}},
      {"exp.build_ms_per_trial", {mean([](const TrialStats& t) { return t.build_ms; }), "ms"}},
      {"exp.run_ms_per_trial", {mean([](const TrialStats& t) { return t.run_ms; }), "ms"}},
      {"exp.condense_ms_per_trial", {mean([](const TrialStats& t) { return t.condense_ms; }), "ms"}},
      {"exp.trial_ms_p50", {trial_ms.quantile(0.5), "ms"}},
      {"exp.trial_ms_p90", {trial_ms.quantile(0.9), "ms"}},
      {"exp.busy_frac", {ratio(busy_ms, static_cast<double>(a.jobs) * wall_ms), "fraction"}},
      {"exp.critical_path_frac", {ratio(longest_ms, wall_ms), "fraction"}},
      {"exp.span_overhead_frac", {spanned.wall_s / plain.wall_s - 1.0, "fraction"}},
      {"exp.usl_sigma", {usl.sigma, "coefficient"}},
      {"exp.usl_kappa", {usl.kappa, "coefficient"}},
      {"exp.allocs_per_trial", {exact_mean([](const TrialStats& t) { return t.steady_allocs; }), "count"}},
      {"exp.setup_allocs_per_trial", {exact_mean([](const TrialStats& t) { return t.setup_allocs; }), "count"}},
      {"sim.events_per_trial", {mean([](const TrialStats& t) { return t.events; }), "count"}},
      {"sim.ns_per_event", {ratio(1e6 * run_ms, events), "ns"}},
      {"sim.pending_mean", {pending_mean, "count"}},
      {"sim.pending_max", {static_cast<double>(pending_max), "count"}},
      {"sim.probe_ns_per_op", {probe_sim_ns(static_cast<std::size_t>(pending_mean + 0.5)), "ns"}},
      {"hw.cpu_jobs_per_trial", {mean([](const TrialStats& t) { return t.cpu_jobs; }), "count"}},
      {"hw.link_msgs_per_trial", {static_cast<double>(ov.link_msgs), "count"}},
      {"hw.probe_ns_per_cpu_job", {probe_cpu_ns(cpu_depth), "ns"}},
      {"jvm.gc_collections_per_trial", {mean([](const TrialStats& t) { return t.gc_collections; }), "count"}},
      {"soft.acquires_per_trial", {mean([](const TrialStats& t) { return t.acquires; }), "count"}},
      {"soft.probe_ns_per_acquire", {probe_pool_ns(waiter_depth), "ns"}},
      {"soft.resizes_per_trial", {mean([](const TrialStats& t) { return t.resizes; }), "count"}},
      {"soft.drained_per_trial", {mean([](const TrialStats& t) { return t.drained; }), "count"}},
  };
  for (std::size_t k = 0; k < 4; ++k) {
    m.push_back({std::string("tier.") + kTierNames[k] + ".completed_per_trial",
                 {mean([k](const TrialStats& t) { return t.completed[k]; }), "count"}});
  }
  const double runs = static_cast<double>(spanned.core_runs);
  m.insert(m.end(), {
      {"workload.pages_per_trial", {mean([](const TrialStats& t) { return t.pages; }), "count"}},
      {"core.runs", {runs, "count"}},
      {"core.batches", {static_cast<double>(sp.core_batches), "count"}},
      {"core.speculative_waste", {runs > 0 ? 1.0 - static_cast<double>(spanned.core_consumed) / runs : 0.0, "fraction"}},
      {"core.self_ms", {sp.core_alg_ms - sp.core_run_batch_ms, "ms"}},
      {"obs.traced_per_trial", {mean([](const TrialStats& t) { return t.traced; }), "count"}},
      {"obs.tail_ms_per_trial", {mean([](const TrialStats& t) { return t.attribute_ms; }), "ms"}},
      {"obs.snapshot_ms_per_trial", {mean([](const TrialStats& t) { return t.snapshot_ms; }), "ms"}},
      {"obs.trace_overhead_frac", {ov.trace_frac, "fraction"}},
      {"obs.profile_overhead_frac", {ov.profile_frac, "fraction"}},
  });

  std::cout << "span run: " << ts.size() << " trials, " << sp.batch_longest_ms.size()
            << " executor batches, " << sp.log.size() << " spans; USL trials/s over "
            << usl.trials << " trials at jobs 1.." << a.jobs << ":";
  for (double x : usl.trials_per_s) std::cout << " " << num(x);
  std::cout << "\n";
  if (!a.spans_out.empty() && !sp.log.write(a.spans_out)) {
    v.check(false, "cannot write spans to " + a.spans_out);
  }
  std::cout << result_json(v, m) << std::endl;
  return 0;
}

int mode_setup(const Args& a, const Workload& w) {
  const TrialRef first = w.first_trial();
  softres::exp::ParallelExecutor pool(a.jobs);
  const double s = pool.submit([&] {
                         return time_to_first_run(first.exp, first.soft,
                                                  first.users, a.t0_ns);
                       }).get();
  std::cout << "{\"setup_s\": " << num(s) << "}" << std::endl;
  return 0;
}

int mode_record(const Args& a, const Workload& w) {
  if (a.seed != default_seed()) usage("goldens are recorded at the default seed");
  const Outcome par = w.run(a.jobs, nullptr);
  const Outcome ser = w.run(1, nullptr);
  Verdict v;
  verify_shared(par, ser, v);
  for (const Check& c : par.checks) v.check(c.ok, c.name + ": " + c.detail);
  if (v.failed != 0) {
    std::cerr << "softbench: not recording: " << v.failed << " failure(s)\n";
    return 1;
  }
  const std::string path = a.goldens + "/" + a.workload + ".txt";
  if (!Goldens::save(path, a.workload, a.seed, par.records)) {
    std::cerr << "softbench: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "recorded " << par.records.size() << " digests to " << path
            << " (" << toolchain() << ")\n";
  return 0;
}

}  // namespace
}  // namespace softbench

int main(int argc, char** argv) {
  using namespace softbench;
  const Args a = parse(argc, argv);
  const std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) usage("unknown workload '" + a.workload + "'");
  if (a.mode == "setup") return mode_setup(a, *w);
  if (a.mode == "run") return mode_run(a, *w);
  if (a.mode == "spans") return mode_spans(a, *w);
  if (a.mode == "record") return mode_record(a, *w);
  usage("unknown mode " + a.mode);
}
