// Ablation A5 — workload sensitivity.
//
// The paper evaluates a one-shot workload (each source queries once). Real
// fleets re-query continuously and skew toward popular targets. This bench
// compares both protocols under the paper's workload, Poisson arrivals, and
// a hotspot (dispatcher-style) pattern on the same worlds. The last two are
// the service tier's open-loop generator at 1 arrival/s with no tier
// mechanism on: uniform destinations, or every destination in the hot set.
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  using namespace hlsrg;
  const bench::BenchOptions opts =
      bench::parse_options(argc, argv, "abl_workload", 3);
  if (opts.parse_failed) return opts.exit_code;

  struct Row {
    const char* label;
    double rate_per_sec;  // 0 = the paper's one-shot workload
    double hotspot_fraction;
  };
  const Row kinds[] = {
      {"one-shot (paper)", 0.0, 0.0},
      {"poisson 1/s", 1.0, 0.0},
      {"hotspot 1/s", 1.0, 1.0},
  };

  bench::SweepDriver driver(opts);
  driver.begin_section("Ablation A5: workload sensitivity",
                       "headline metrics");
  std::printf("== Ablation A5: workload sensitivity (500 vehicles) ==\n");
  TextTable table;
  table.add_row({"workload", "protocol", "queries", "success", "delay ms",
                 "query tx"});
  for (const Row& row : kinds) {
    ScenarioConfig cfg = paper_scenario(500, 9500);
    if (row.rate_per_sec > 0.0) {
      cfg.source_fraction = 0.0;
      cfg.service.open_loop_rate_per_sec = row.rate_per_sec;
      cfg.service.hotspot_fraction = row.hotspot_fraction;
    }
    for (Protocol protocol : {Protocol::kHlsrg, Protocol::kRlsmp}) {
      const ReplicaSet s = driver.run(row.label, cfg, protocol);
      table.add_row({
          row.label,
          protocol_name(protocol),
          fmt_double(static_cast<double>(s.merged.queries_issued) /
                         static_cast<double>(s.replicas.size()),
                     1),
          fmt_percent(static_cast<double>(s.merged.queries_succeeded),
                      static_cast<double>(s.merged.queries_issued)),
          fmt_double(s.mean_query_latency_ms(), 1),
          fmt_double(s.mean_query_overhead(), 1),
      });
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("-- CSV --\n%s\n", table.render_csv().c_str());
  return driver.finish() ? 0 : 1;
}
