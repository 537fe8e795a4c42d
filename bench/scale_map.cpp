// Extension bench — scaling past the paper's 2 km map.
//
// On a 2 km map the whole world is one L3 region and the paper's L3-to-L3
// wired forwarding never fires. Doubling the map to 4 km (4 L3 regions,
// constant vehicle density) exercises the full hierarchy: cross-region
// queries must resolve through L3 gossip and the compass mesh. RLSMP scales
// by spiralling across more clusters.
//
// HLSRG_SCALE_SIZES limits the sweep to a comma-separated subset of the map
// sizes in metres (e.g. HLSRG_SCALE_SIZES=2000 for the CI perf-smoke run).
// The deep memory-scale rows (8 km / 16 km, HLSRG only) run ONLY when their
// size is named in the list — they dominate runtime, so the default sweep
// skips them (HLSRG_SCALE_SIZES=16000 is the CI memory smoke).
#include "common.h"

#include <cstring>

namespace {

// True when `size` appears in the comma-separated HLSRG_SCALE_SIZES list
// (or the variable is unset/empty, which keeps the full sweep).
bool size_selected(double size) {
  const char* env = std::getenv("HLSRG_SCALE_SIZES");
  if (env == nullptr || *env == '\0') return true;
  const std::string want = std::to_string(static_cast<int>(size));
  const char* p = env;
  while (*p != '\0') {
    const char* comma = std::strchr(p, ',');
    const std::size_t len = comma != nullptr
                                ? static_cast<std::size_t>(comma - p)
                                : std::strlen(p);
    if (want.compare(0, std::string::npos, p, len) == 0) return true;
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return false;
}

// Deep rows are opt-in: an unset/empty list keeps them OFF (the opposite of
// size_selected's default), so `for b in build/bench/*` stays in the low
// minutes.
bool deep_selected(double size) {
  const char* env = std::getenv("HLSRG_SCALE_SIZES");
  if (env == nullptr || *env == '\0') return false;
  return size_selected(size);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hlsrg;
  const bench::BenchOptions opts =
      bench::parse_options(argc, argv, "scale_map", 2);
  if (opts.parse_failed) return opts.exit_code;

  std::vector<bench::SweepRow> rows;
  for (double size : {2000.0, 3000.0, 4000.0}) {
    if (!size_selected(size)) continue;
    // Constant density: 500 vehicles on 2 km ^ 2.
    const int vehicles = static_cast<int>(500.0 * (size * size) / (2000.0 * 2000.0));
    ScenarioConfig cfg = paper_scenario(vehicles, 9950);
    cfg.map.size_m = size;
    rows.push_back({std::to_string(static_cast<int>(size)) + "m/" +
                        std::to_string(vehicles) + "veh",
                    cfg});
  }

  bench::SweepDriver driver(opts);
  // A deep-only HLSRG_SCALE_SIZES selection (e.g. "16000") leaves the
  // comparison rows empty; comparison() must not run on an empty sweep.
  if (!rows.empty()) {
    driver.comparison("Extension: map scaling (success rate)", "success",
                      rows, [](const ReplicaSet& s) {
                        return s.mean_success_rate();
                      });
    driver.comparison("Extension: map scaling (mean delay ms)", "delay ms",
                      rows, [](const ReplicaSet& s) {
                        return s.mean_query_latency_ms();
                      });
    // Region observatory: does a bigger map spread delivery load evenly over
    // the L3 regions, or concentrate it (coefficient of variation of the
    // per-region delivered packets; 0 = perfectly uniform)?
    driver.comparison("Extension: map scaling (region load imbalance)",
                      "load cv", rows, [](const ReplicaSet& s) {
                        return s.regions.load_imbalance().cv;
                      });
  }

  // Deep memory-scale rows: HLSRG only (RLSMP's spiral search is quadratic
  // in cluster count and would dominate the sweep), six-digit vehicle
  // counts, short horizon — the figure of merit is protocol-state bytes per
  // vehicle and process peak RSS, not query statistics.
  std::vector<bench::SweepRow> deep;
  for (double size : {8000.0, 16000.0}) {
    if (!deep_selected(size)) continue;
    // Constant density chosen so 16 km carries 100k vehicles.
    const int vehicles =
        static_cast<int>(100000.0 * (size * size) / (16000.0 * 16000.0));
    ScenarioConfig cfg = paper_scenario(vehicles, 9950);
    cfg.map.size_m = size;
    // Short horizon: tables reach steady state after one push period; the
    // remaining sim time only scales wall clock, not footprint.
    cfg.warmup = SimTime::from_sec(20.0);
    cfg.query_window = SimTime::from_sec(10.0);
    cfg.grace = SimTime::from_sec(20.0);
    cfg.source_fraction = 0.01;
    deep.push_back({std::to_string(static_cast<int>(size)) + "m/" +
                        std::to_string(vehicles) + "veh",
                    cfg});
  }
  if (!deep.empty()) {
    driver.begin_section("Extension: memory scale (HLSRG)", "bytes/veh");
    std::printf("== Extension: memory scale (HLSRG) ==\n");
    TextTable table;
    table.add_row(
        {"point", "bytes/veh", "tables MB", "peak RSS MB", "success"});
    for (const bench::SweepRow& row : deep) {
      const ReplicaSet s = driver.run(row.label, row.config, Protocol::kHlsrg);
      const double veh = static_cast<double>(row.config.vehicles);
      table.add_row(
          {row.label,
           fmt_double(static_cast<double>(s.engine_total.table_bytes) / veh, 1),
           fmt_double(static_cast<double>(s.engine_total.table_bytes) / 1e6, 2),
           fmt_double(
               static_cast<double>(s.engine_total.peak_rss_bytes) / 1e6, 1),
           fmt_double(s.mean_success_rate(), 3)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("-- CSV --\n%s\n", table.render_csv().c_str());
  }
  return driver.finish() ? 0 : 1;
}
