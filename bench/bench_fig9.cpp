// Figure 9: a sample request's processing between the Tomcat server and the
// C-JDBC server — the per-tier residence intervals that motivate the
// RTT_ratio/Req_ratio sizing of CalculateMinAllocation. Traces a sample of
// live requests on the 1/4/1/4 testbed through obs::TraceCollector and
// reports T (Tomcat residence), t1..tn (per-query C-JDBC residences), the
// aggregate per-tier latency breakdown, and — when SOFTRES_TRACE_JSON is set
// — a Chrome trace_event file loadable in Perfetto.

#include <cstdlib>
#include <fstream>

#include "bench_util.h"
#include "exp/testbed.h"
#include "obs/trace.h"

using namespace softres;

int main() {
  bench::header("Figure 9: sample request processing, Tomcat vs C-JDBC",
                "tier-by-tier trace of live requests on 1/4/1/4");

  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig{1, 4, 1, 4};
  cfg.soft = exp::SoftConfig{400, 15, 20};
  workload::ClientConfig client;
  client.users = 6000;
  client.ramp_up_s = 20.0;
  client.runtime_s = 40.0;
  client.ramp_down_s = 3.0;
  client.trace_sample_rate = 0.002;
  exp::Testbed bed(cfg, client);
  bed.run();

  obs::TraceCollector collector;
  collector.collect(bed.farm().traced_requests());
  std::cout << "traced requests: " << bed.farm().traced_requests().size()
            << " (" << collector.size() << " complete)\n";

  // Print a handful of assembled span trees.
  int shown = 0;
  double sum_T = 0.0, sum_t = 0.0, sum_ratio = 0.0;
  int ratio_n = 0;
  for (const auto& trace : collector.traces()) {
    double tomcat_T = 0.0, cjdbc_sum = 0.0;
    int queries = 0;
    for (const auto& span : trace.spans) {
      if (span.server.rfind("tomcat", 0) == 0) tomcat_T = span.duration();
      if (span.server.rfind("cjdbc", 0) == 0) {
        cjdbc_sum += span.duration();
        ++queries;
      }
    }
    if (tomcat_T <= 0.0 || queries == 0) continue;
    if (shown < 5) {
      std::cout << "\nrequest " << trace.request_id << " (interaction "
                << trace.interaction << ", " << queries << " queries):\n";
      for (const auto& span : trace.spans) {
        std::cout << "  " << span.server << "  ["
                  << metrics::Table::fmt(span.enter, 4) << ", "
                  << metrics::Table::fmt(span.leave, 4) << ")  = "
                  << metrics::Table::fmt(span.duration() * 1000.0, 2)
                  << " ms";
        if (span.queue_s > 0.0) {
          std::cout << "  (+" << metrics::Table::fmt(span.queue_s * 1000.0, 2)
                    << " ms queued)";
        }
        std::cout << "\n";
      }
      std::cout << "  T (Tomcat) = "
                << metrics::Table::fmt(tomcat_T * 1000.0, 2)
                << " ms,  sum t_i (C-JDBC) = "
                << metrics::Table::fmt(cjdbc_sum * 1000.0, 2)
                << " ms,  T / sum(t_i) = "
                << metrics::Table::fmt(tomcat_T / cjdbc_sum, 2) << "\n";
      ++shown;
    }
    sum_T += tomcat_T;
    sum_t += cjdbc_sum;
    sum_ratio += tomcat_T / cjdbc_sum;
    ++ratio_n;
  }

  if (ratio_n > 0) {
    std::cout << "\nacross " << ratio_n << " traced requests: mean T = "
              << metrics::Table::fmt(1000.0 * sum_T / ratio_n, 2)
              << " ms, mean sum(t_i) = "
              << metrics::Table::fmt(1000.0 * sum_t / ratio_n, 2)
              << " ms, mean T/sum(t_i) = "
              << metrics::Table::fmt(sum_ratio / ratio_n, 2) << "\n";
    std::cout << "\nAs in Fig 9, a Tomcat job holds its DB connection for the "
                 "whole T while occupying the C-JDBC server only during the "
                 "t_i — hence N Tomcat jobs need ~N*T/(sum t_i) connections "
                 "to keep N jobs active downstream.\n";
  }

  // The generalized Fig 9: where does the mean response time actually go.
  std::cout << "\n";
  collector.breakdown().print(std::cout);

  if (const char* path = std::getenv("SOFTRES_TRACE_JSON")) {
    std::ofstream os(path);
    if (os) {
      collector.write_chrome_trace(os);
      std::cout << "\n[trace] wrote " << path
                << " (load in Perfetto / chrome://tracing)\n";
    }
  }
  return 0;
}
