// Load-knee bench: drives the HLSRG RSU backbone with an open-loop Poisson
// arrival stream swept across offered rates and locates the knee — the
// highest rate the deployment sustains inside a p99 latency budget at an
// acceptable served fraction (service/knee.h). Two variants run per rate:
//
//   naive  open-loop arrivals only; no batching, no caching, no shedding —
//          the pre-tier serving path under pressure
//   tier   the full service tier: admission control (load shedding),
//          co-destined query batching at L2/L3 RSUs, and the
//          hot-destination cache fed by the hotspot skew
//
// With --gate the bench enforces the acceptance bar: the tier variant must
// hold >= 1.5x the naive variant's sustained goodput at the p99 knee
// (exit 3 otherwise). CI smoke keeps defaults small; override with
//   HLSRG_LOAD_RATES=4,8,16,32   offered rates swept (arrivals/sec)
//   HLSRG_LOAD_VEHICLES=300      fleet size
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "service/knee.h"

namespace {

using namespace hlsrg;
using namespace hlsrg::bench;

std::vector<double> sweep_rates() {
  std::vector<double> rates;
  if (const char* env = std::getenv("HLSRG_LOAD_RATES")) {
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      const double r = std::strtod(p, &end);
      if (end == p) break;
      if (r > 0.0) rates.push_back(r);
      p = (*end == ',') ? end + 1 : end;
    }
  }
  if (rates.empty()) rates = {4.0, 12.0, 36.0, 108.0};
  return rates;
}

ScenarioConfig base_scenario(int vehicles) {
  ScenarioConfig cfg = paper_scenario(vehicles, 41);
  cfg.map.size_m = 1200.0;
  // The open-loop generator is the sole load source: zero scenario-workload
  // sources keeps the sweep purely rate-driven.
  cfg.workload = ScenarioConfig::WorkloadKind::kOneShot;
  cfg.source_fraction = 0.0;
  cfg.hotspot_targets = 5;
  cfg.warmup = SimTime::from_sec(40.0);
  cfg.query_window = SimTime::from_sec(25.0);
  cfg.grace = SimTime::from_sec(40.0);
  cfg.service.hotspot_fraction = 0.8;
  // Per-lookup serving cost at each RSU — the finite resource the sweep
  // saturates. ~40 lookups/sec per RSU; the upstream L3 is the bottleneck.
  cfg.service.rsu_lookup_time = SimTime::from_ms(40.0);
  return cfg;
}

void apply_tier(ScenarioConfig* cfg) {
  cfg->service.max_outstanding = 96;
  cfg->service.batching = true;
  cfg->service.batch_window = SimTime::from_ms(40.0);
  cfg->service.max_batch = 8;
  cfg->service.caching = true;
  cfg->service.cache_ttl = SimTime::from_sec(15.0);
  cfg->service.cache_capacity = 512;
}

LoadPoint to_point(double rate, const ReplicaSet& set, double window_sec,
                   int replicas) {
  LoadPoint p;
  p.offered_rate = rate;
  const double n = static_cast<double>(replicas);
  p.goodput =
      static_cast<double>(set.merged.queries_succeeded) / n / window_sec;
  p.p99_ms = set.merged.query_latency.p99_ms();
  p.served_rate = set.merged.served_rate();
  p.availability = set.merged.success_rate();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  // Bench-specific flags are peeled off before the uniform bench set.
  bool gate = false;
  // Above the single-retry ACK-timeout tail (~5 s): only genuine queueing
  // blowup at the RSUs, not one lost radio hop, should trip the budget.
  double p99_budget_ms = 6000.0;
  std::vector<char*> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
      continue;
    }
    if (std::strcmp(argv[i], "--p99-budget") == 0 && i + 1 < argc) {
      p99_budget_ms = std::atof(argv[++i]);
      continue;
    }
    rest.push_back(argv[i]);
  }
  BenchOptions opts = parse_options(static_cast<int>(rest.size()),
                                    rest.data(), "load_knee", 1);
  if (opts.parse_failed) {
    if (opts.exit_code == 0) {
      std::printf("  --gate             enforce tier >= 1.5x naive sustained "
                  "goodput at the knee\n"
                  "  --p99-budget MS    knee admission budget "
                  "(default %.0f ms)\n", p99_budget_ms);
    }
    return opts.exit_code;
  }

  int vehicles = 180;
  if (const char* env = std::getenv("HLSRG_LOAD_VEHICLES")) {
    vehicles = std::max(10, std::atoi(env));
  }
  const std::vector<double> rates = sweep_rates();

  SweepDriver driver(opts);
  driver.begin_section("open-loop load sweep", "goodput_per_sec");
  std::printf("== load knee: naive vs service tier ==\n");
  std::printf("   (%d vehicles, %d replica%s, p99 budget %.0f ms)\n", vehicles,
              driver.replicas(), driver.replicas() == 1 ? "" : "s",
              p99_budget_ms);

  std::vector<LoadPoint> naive_points;
  std::vector<LoadPoint> tier_points;
  TextTable table;
  table.add_row({"rate/s", "naive good/s", "naive p99 ms", "naive served",
                 "tier good/s", "tier p99 ms", "tier served", "tier shed",
                 "naive imb cv", "tier imb cv"});
  for (const double rate : rates) {
    ScenarioConfig naive_cfg = base_scenario(vehicles);
    naive_cfg.service.open_loop_rate_per_sec = rate;
    ScenarioConfig tier_cfg = naive_cfg;
    apply_tier(&tier_cfg);

    const std::string label = fmt_double(rate, 1) + "/s";
    const ReplicaSet naive =
        driver.run("naive@" + label, naive_cfg, Protocol::kHlsrg);
    const ReplicaSet tier =
        driver.run("tier@" + label, tier_cfg, Protocol::kHlsrg);
    const double window_sec = naive_cfg.query_window.sec();
    const LoadPoint np = to_point(rate, naive, window_sec, driver.replicas());
    const LoadPoint tp = to_point(rate, tier, window_sec, driver.replicas());
    naive_points.push_back(np);
    tier_points.push_back(tp);
    table.add_row({label, fmt_double(np.goodput, 2), fmt_double(np.p99_ms, 1),
                   fmt_double(np.served_rate, 3), fmt_double(tp.goodput, 2),
                   fmt_double(tp.p99_ms, 1), fmt_double(tp.served_rate, 3),
                   std::to_string(tier.merged.queries_shed +
                                  tier.merged.retries_shed),
                   // Per-L3-region delivery-load spread (obs telemetry):
                   // does shedding/batching also flatten the hot regions?
                   fmt_double(naive.regions.load_imbalance().cv, 3),
                   fmt_double(tier.regions.load_imbalance().cv, 3)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("-- CSV --\n%s\n", table.render_csv().c_str());

  // Knee: highest admissible offered rate; sustained goodput is the best
  // goodput among admissible points. min_served 0.5 keeps "we shed almost
  // everything" from counting as sustaining the rate.
  const KneeResult naive_knee = find_knee(naive_points, p99_budget_ms, 0.5);
  const KneeResult tier_knee = find_knee(tier_points, p99_budget_ms, 0.5);
  auto print_knee = [](const char* name, const KneeResult& k) {
    if (!k.found) {
      std::printf("%s knee: none (no admissible point)\n", name);
      return;
    }
    std::printf("%s knee: %.1f/s offered, %.2f/s sustained goodput, "
                "p99 %.1f ms\n",
                name, k.knee_rate, k.sustained_goodput, k.p99_at_knee_ms);
  };
  print_knee("naive", naive_knee);
  print_knee("tier ", tier_knee);

  if (!driver.finish()) return 1;

  if (gate) {
    if (!tier_knee.found) {
      std::fprintf(stderr, "load gate FAILED: tier has no admissible point "
                           "inside the %.0f ms p99 budget\n", p99_budget_ms);
      return 3;
    }
    const double naive_good =
        naive_knee.found ? naive_knee.sustained_goodput : 0.0;
    if (naive_good > 0.0 &&
        tier_knee.sustained_goodput < 1.5 * naive_good) {
      std::fprintf(stderr,
                   "load gate FAILED: tier sustained goodput %.2f/s < 1.5x "
                   "naive %.2f/s\n",
                   tier_knee.sustained_goodput, naive_good);
      return 3;
    }
    std::printf("load gate ok: tier %.2f/s vs naive %.2f/s (%.2fx)\n",
                tier_knee.sustained_goodput, naive_good,
                naive_good > 0.0 ? tier_knee.sustained_goodput / naive_good
                                 : 0.0);
  }
  return 0;
}
