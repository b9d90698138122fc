#include "digest.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace softbench {

using namespace softres;

std::uint64_t digest_of(const exp::RunResult& r) {
  Digest d;
  d.add(r.trial_seed);
  d.add(static_cast<std::uint64_t>(r.users));
  d.add(r.window_s);
  // Sorted copy: SampleSet sorts its samples in place on the first quantile
  // or goodput query, so raw() order depends on what already read it.
  std::vector<double> rts = r.response_times.raw();
  std::sort(rts.begin(), rts.end());
  d.add(static_cast<std::uint64_t>(rts.size()));
  for (double x : rts) d.add(x);
  d.add(r.throughput);
  d.add(r.req_ratio);
  d.add(r.cjdbc_gc_seconds);
  d.add(r.tomcat_gc_seconds);
  for (const auto& c : r.cpus) {
    d.add(c.name);
    d.add(c.util_pct);
    d.add(c.gc_util_pct);
    d.add(static_cast<std::uint64_t>(c.saturated));
  }
  for (const auto& p : r.pools) {
    d.add(p.name);
    d.add(static_cast<std::uint64_t>(p.capacity));
    d.add(p.util_pct);
    d.add(p.mean_wait_ms);
    d.add(static_cast<std::uint64_t>(p.saturated));
  }
  for (const auto& s : r.servers) {
    d.add(s.name);
    d.add(s.throughput);
    d.add(s.mean_rt_s);
    d.add(s.avg_jobs);
  }
  d.add(static_cast<std::uint64_t>(r.diagnosis.pathology));
  d.add(r.diagnosis.confidence);
  d.add(static_cast<std::uint64_t>(r.diagnosis.evidence.size()));
  for (const auto& res : r.diagnosis.implicated_resources) d.add(res);
  d.add(static_cast<std::uint64_t>(r.diagnosis.tail.present));
  d.add(static_cast<std::uint64_t>(r.diagnosis.tail.corroborates));
  for (const auto& a : r.governor_actions) {
    d.add(a.at);
    d.add(a.pool);
    d.add(static_cast<std::uint64_t>(a.from));
    d.add(static_cast<std::uint64_t>(a.to));
  }
  d.add(static_cast<std::uint64_t>(r.traces.size()));
  d.add(static_cast<std::uint64_t>(r.tail.requests));
  d.add(r.tail.p50_s);
  d.add(r.tail.p95_s);
  d.add(r.tail.p99_s);
  for (const auto& c : r.tail.cohorts) {
    d.add(c.name);
    d.add(static_cast<std::uint64_t>(c.requests));
    d.add(c.mean_rt_s);
    for (double b : c.blame_s) d.add(b);
    d.add(static_cast<std::uint64_t>(c.slo_misses));
  }
  return d.value();
}

std::uint64_t digest_of(const core::Observation& o) {
  Digest d;
  d.add(static_cast<std::uint64_t>(o.workload));
  d.add(o.throughput);
  d.add(o.goodput);
  d.add(o.slo_satisfaction);
  d.add(o.req_ratio);
  for (const auto& h : o.hardware) {
    d.add(h.name);
    d.add(h.util_pct);
    d.add(static_cast<std::uint64_t>(h.saturated));
  }
  for (const auto& s : o.soft) {
    d.add(s.name);
    d.add(static_cast<std::uint64_t>(s.capacity));
    d.add(s.util_pct);
    d.add(static_cast<std::uint64_t>(s.saturated));
  }
  for (const auto& s : o.servers) {
    d.add(static_cast<std::uint64_t>(s.tier));
    d.add(s.name);
    d.add(s.throughput);
    d.add(s.mean_rt_s);
    d.add(s.avg_jobs);
  }
  return d.value();
}

namespace {

void add_alloc(Digest& d, const core::Allocation& a) {
  d.add(static_cast<std::uint64_t>(a.web_threads));
  d.add(static_cast<std::uint64_t>(a.app_threads));
  d.add(static_cast<std::uint64_t>(a.app_connections));
}

void add_trace(Digest& d, const std::vector<core::TracePoint>& trace) {
  for (const auto& t : trace) {
    d.add(static_cast<std::uint64_t>(t.workload));
    add_alloc(d, t.alloc);
    d.add(t.throughput);
    d.add(t.goodput);
    d.add(t.slo_satisfaction);
    d.add(static_cast<std::uint64_t>(t.bottleneck));
    d.add(t.critical);
  }
}

}  // namespace

std::uint64_t digest_of(const core::AllocationReport& rep) {
  Digest d;
  d.add(static_cast<std::uint64_t>(rep.status));
  d.add(rep.critical.critical_resource);
  d.add(rep.critical.critical_server);
  add_alloc(d, rep.critical.reserve);
  add_trace(d, rep.critical.trace);
  d.add(static_cast<std::uint64_t>(rep.min_jobs.saturation_workload));
  d.add(rep.min_jobs.saturation_throughput);
  d.add(rep.min_jobs.critical_rtt_s);
  d.add(rep.min_jobs.critical_throughput);
  d.add(static_cast<std::uint64_t>(rep.min_jobs.min_jobs));
  add_trace(d, rep.min_jobs.trace);
  d.add(rep.req_ratio);
  for (const auto& row : rep.rows) {
    d.add(static_cast<std::uint64_t>(row.tier));
    d.add(static_cast<std::uint64_t>(row.servers));
    d.add(row.rtt_s);
    d.add(row.throughput);
    d.add(row.avg_jobs);
    d.add(static_cast<std::uint64_t>(row.pool_total));
    d.add(static_cast<std::uint64_t>(row.pool_per_server));
  }
  add_alloc(d, rep.recommended);
  d.add(static_cast<std::uint64_t>(rep.experiments_run));
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string toolchain() {
  return std::string(SOFTBENCH_COMPILER) + " " + SOFTBENCH_BUILD_TYPE;
}

bool Goldens::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::string key = "# toolchain ";
      if (line.rfind(key, 0) == 0) toolchain = line.substr(key.size());
      continue;
    }
    const std::size_t sp = line.find(' ');
    if (sp != 16) return false;
    by_label[line.substr(sp + 1)] =
        std::strtoull(line.substr(0, sp).c_str(), nullptr, 16);
  }
  return !by_label.empty();
}

bool Goldens::save(const std::string& path, const std::string& workload,
                   std::uint64_t seed, const std::vector<Record>& records) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# softbench goldens: workload " << workload << ", base seed " << seed
      << "\n# toolchain " << softbench::toolchain()
      << "\n# <digest> <trial label>; re-record only with "
         "`softbench record`, never to hide a mismatch\n";
  for (const Record& r : records) out << hex(r.digest) << " " << r.label << "\n";
  return static_cast<bool>(out);
}

}  // namespace softbench
