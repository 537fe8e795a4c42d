// Engine throughput bench — the perf-gate fixture.
//
// Runs the three protocols on small paper scenarios and reports host
// throughput (simulated seconds per wall second) and peak RSS per
// measurement via the standard BENCH_micro_engine.json report.
// scripts/bench_compare.py gates these engine fields, and the run metrics
// (radio broadcasts, peak outstanding queries), against bench_baseline/ in
// CI (perf-smoke); --audit-determinism turns the same run into a hard
// within-binary determinism check. Kernel-level microbenchmarks (event
// queue, RNG, index primitives) live in kernel_micro (google-benchmark).
#include "common.h"

int main(int argc, char** argv) {
  using namespace hlsrg;
  const bench::BenchOptions opts =
      bench::parse_options(argc, argv, "micro_engine", 1);
  if (opts.parse_failed) return opts.exit_code;

  struct Point {
    const char* label;
    Protocol protocol;
    int vehicles;
  };
  // FLOOD is the event-count heavyweight (every update floods the map), so
  // it runs fewer vehicles for comparable wall time.
  const Point points[] = {{"hlsrg/300veh", Protocol::kHlsrg, 300},
                          {"rlsmp/300veh", Protocol::kRlsmp, 300},
                          {"flood/150veh", Protocol::kFlood, 150}};

  bench::SweepDriver driver(opts);
  driver.begin_section("Engine throughput", "sim s/sec");
  std::printf("== Engine throughput ==\n");
  TextTable table;
  table.add_row({"point", "events", "sim s/sec", "peak RSS MB"});
  for (const Point& p : points) {
    const ScenarioConfig cfg = paper_scenario(p.vehicles, 7100);
    const ReplicaSet set = driver.run(p.label, cfg, p.protocol);
    const EngineStats& e = set.engine_total;
    table.add_row({p.label, std::to_string(e.events_processed),
                   fmt_double(e.sim_seconds_per_sec(), 1),
                   fmt_double(static_cast<double>(e.peak_rss_bytes) / 1e6, 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("-- CSV --\n%s\n", table.render_csv().c_str());
  return driver.finish() ? 0 : 1;
}
