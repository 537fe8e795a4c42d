// Scenario CLI: a flag-driven simulation driver (the "ns-2 command line" of
// this repository). Runs one scenario under any protocol, over one or more
// replicas, and prints the full metric set; optionally writes replica 0's
// span trace (Chrome-trace JSON or a span-tree text dump) and/or a
// one-result bench report (bench "scenario_cli", see docs/PROTOCOL.md).
//
//   $ ./scenario_cli --protocol hlsrg --vehicles 500 --size 2000 --seed 42
//   $ ./scenario_cli --workload poisson --no-rsus --spans spans.txt
//   $ ./scenario_cli --map data/demo_irregular_2km.map --irregular
//   $ ./scenario_cli --replicas 8 --threads 4 --out run.json
//   $ ./scenario_cli --trace-out=trace.json     # open in Perfetto
//   $ ./scenario_cli --obs-out=obs.json         # region observatory document
#include <cstdio>
#include <fstream>
#include <string>

#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/world.h"
#include "obs/profiler.h"
#include "obs/region_telemetry.h"
#include "report/bench_report.h"
#include "roadnet/map_io.h"
#include "trace/chrome_trace.h"
#include "util/args.h"

int main(int argc, char** argv) {
  using namespace hlsrg;

  ScenarioConfig cfg = paper_scenario(500, 1);
  std::string protocol_str = "hlsrg";
  std::string workload_str = "oneshot";
  double warmup = cfg.warmup.sec();
  double window = cfg.query_window.sec();
  double grace = cfg.grace.sec();
  bool no_rsus = false;
  bool irregular = false;
  int replicas = 1;
  int threads = 0;
  std::string trace_out_path;
  std::string spans_path;
  int trace_cap = 0;
  std::string save_map_path;
  std::string out_path;
  std::string obs_out_path;
  std::string fault_plan_path;
  std::uint64_t fault_seed = 0;

  ArgParser args("runs one scenario under any protocol and prints metrics");
  args.add_choice("--protocol", "protocol under test", {"hlsrg", "rlsmp", "flood"},
                  &protocol_str);
  args.add_int("--vehicles", "N", "vehicle count", &cfg.vehicles);
  args.add_double("--size", "M", "map edge in metres", &cfg.map.size_m);
  args.add_uint64("--seed", "S", "master seed", &cfg.seed);
  args.add_int("--replicas", "N", "independent replicas (seeds S, S+1, ...)",
               &replicas);
  args.add_int("--threads", "T", "replica threads (0 = auto)", &threads);
  args.add_double("--warmup", "S", "warmup seconds", &warmup);
  args.add_double("--window", "S", "query-window seconds", &window);
  args.add_double("--grace", "S", "grace seconds", &grace);
  args.add_choice("--workload", "query workload", {"oneshot", "poisson", "hotspot"},
                  &workload_str);
  args.add_flag("--no-rsus", "HLSRG without infrastructure", &no_rsus);
  args.add_flag("--irregular", "jittered map with normal-road dropout",
                &irregular);
  args.add_string("--map", "FILE", "load the road network from FILE",
                  &cfg.map_file);
  args.add_string("--save-map", "FILE", "write the scenario's map to FILE",
                  &save_map_path);
  args.add_string("--trace-out", "FILE",
                  "write Chrome-trace JSON spans (replica 0; Perfetto-ready)",
                  &trace_out_path);
  args.add_string("--spans", "FILE", "write the span-tree text dump (replica 0)",
                  &spans_path);
  args.add_int("--trace-cap", "N", "cap the trace at N spans (0 = default)",
               &trace_cap);
  args.add_string("--out", "FILE", "write a JSON bench report to FILE",
                  &out_path);
  args.add_flag("--profile",
                "wall-clock phase profiler (digest-neutral; adds a profile "
                "blob to --out and a flame track to --trace-out)",
                &cfg.profile);
  args.add_string("--obs-out", "FILE",
                  "write the region observatory JSON (telemetry + traffic "
                  "matrix + profile; implies --profile)",
                  &obs_out_path);
  args.add_string("--fault-plan", "FILE",
                  "run under a scripted fault plan (JSON, PROTOCOL.md §7)",
                  &fault_plan_path);
  args.add_uint64("--fault-seed", "S",
                  "pin the fault RNG stream (0 = derive from --seed)",
                  &fault_seed);
  double parked_fraction = cfg.mobility.parked_fraction;
  double park_rate = 0.0;
  double dwell_mean = cfg.mobility.churn.dwell_mean_sec;
  bool parked_hosting = false;
  bool no_handoff = false;
  args.add_double("--parked-fraction", "F",
                  "fraction of vehicles that start parked",
                  &parked_fraction);
  args.add_double("--park-rate", "R",
                  "parking-churn hazard per second (>0 enables the parking "
                  "lifecycle: moving vehicles pull over, dwell, depart)",
                  &park_rate);
  args.add_double("--dwell-mean", "S", "mean parked dwell in seconds",
                  &dwell_mean);
  args.add_flag("--parked-hosting",
                "host L2/L3 roles on the nearest parked vehicles instead of "
                "fixed RSUs (HLSRG only)",
                &parked_hosting);
  args.add_flag("--no-handoff",
                "disable the role table-handoff protocol (churn control: "
                "successors rebuild from beacons only)",
                &no_handoff);
  args.add_double("--open-loop-rate", "R",
                  "open-loop Poisson arrivals per second",
                  &cfg.service.open_loop_rate_per_sec);
  args.add_double("--open-loop-ramp", "R",
                  "open-loop rate ramp in arrivals/s^2",
                  &cfg.service.open_loop_ramp_per_sec2);
  int max_outstanding = static_cast<int>(cfg.service.max_outstanding);
  args.add_int("--max-outstanding", "N",
               "shed queries above N outstanding (0 = never shed)",
               &max_outstanding);
  args.add_flag("--batching", "batch co-destined queries at L2/L3 RSUs",
                &cfg.service.batching);
  args.add_flag("--caching", "hot-destination location cache at RSUs",
                &cfg.service.caching);
  if (!args.parse(argc, argv)) return args.exit_code();
  cfg.service.max_outstanding =
      static_cast<std::size_t>(std::max(0, max_outstanding));

  Protocol protocol = Protocol::kHlsrg;
  if (protocol_str == "rlsmp") protocol = Protocol::kRlsmp;
  if (protocol_str == "flood") protocol = Protocol::kFlood;
  cfg.workload = ScenarioConfig::WorkloadKind::kOneShot;
  if (workload_str == "poisson") {
    cfg.workload = ScenarioConfig::WorkloadKind::kPoisson;
  } else if (workload_str == "hotspot") {
    cfg.workload = ScenarioConfig::WorkloadKind::kHotspot;
  }
  cfg.warmup = SimTime::from_sec(warmup);
  cfg.query_window = SimTime::from_sec(window);
  cfg.grace = SimTime::from_sec(grace);
  if (no_rsus) cfg.hlsrg.use_rsus = false;
  if (irregular) cfg.map.irregular = true;
  cfg.fault_plan_file = fault_plan_path;
  cfg.fault_seed = fault_seed;
  cfg.mobility.parked_fraction = parked_fraction;
  cfg.mobility.churn.dwell_mean_sec = dwell_mean;
  if (park_rate > 0.0) {
    cfg.mobility.churn.enabled = true;
    cfg.mobility.churn.park_rate_per_sec = park_rate;
  }
  cfg.hlsrg.parked_rsu_hosting = parked_hosting;
  if (no_handoff) cfg.hlsrg.enable_handoff = false;
  replicas = std::max(1, replicas);
  if (!obs_out_path.empty()) cfg.profile = true;
  const bool tracing = !trace_out_path.empty() || !spans_path.empty();
  if (trace_cap > 0 && !tracing) {
    // Fail fast instead of silently ignoring the cap: without a trace sink
    // the TraceLog is never attached, so the flag would do nothing.
    std::fprintf(stderr,
                 "--trace-cap has no effect without a trace output; add "
                 "--trace-out or --spans\n");
    return 1;
  }
  if (fault_seed != 0 && fault_plan_path.empty()) {
    // Same fail-fast contract as --trace-cap: without a plan no injector is
    // built, so the pinned fault stream would be silently ignored.
    std::fprintf(stderr,
                 "--fault-seed has no effect without --fault-plan\n");
    return 1;
  }
  if (!save_map_path.empty()) {
    std::string error;
    if (!save_map_file(build_scenario_map(cfg), save_map_path, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("map:        wrote %s\n", save_map_path.c_str());
  }

  // Every invocation, one replica or many, runs through the replica runner;
  // the trace, span dump and saved map describe replica 0.
  TraceLog trace;
  if (trace_cap > 0) trace.set_capacity(static_cast<std::size_t>(trace_cap));
  const ReplicaSet set =
      run_replicas(cfg, protocol, replicas, static_cast<std::size_t>(threads),
                   tracing ? &trace : nullptr);
  const PhaseProfiler* profile = set.profile.empty() ? nullptr : &set.profile;
  if (!trace_out_path.empty()) {
    std::string error;
    if (!write_chrome_trace(trace, set.phases, trace_out_path, &error,
                            profile)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("trace-out:  %zu spans -> %s\n", trace.span_count(),
                trace_out_path.c_str());
  }
  if (!spans_path.empty()) {
    std::ofstream file(spans_path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
    file << trace.span_tree_text();
    std::printf("spans:      %zu spans -> %s\n", trace.span_count(),
                spans_path.c_str());
  }
  const EngineStats& engine = set.engine_total;
  if (engine.trace_spans_dropped > 0) {
    std::fprintf(stderr,
                 "warning: trace capacity hit (%llu spans dropped); raise "
                 "--trace-cap\n",
                 static_cast<unsigned long long>(engine.trace_spans_dropped));
  }

  const RunMetrics& m = set.merged;
  std::printf("protocol:   %s\n", protocol_name(protocol));
  std::printf("scenario:   %d vehicles, %.0f m map, seed %llu, %s%s, "
              "%d replica%s\n",
              cfg.vehicles, cfg.map.size_m,
              static_cast<unsigned long long>(cfg.seed),
              cfg.map.irregular ? "irregular, " : "",
              cfg.hlsrg.use_rsus ? "RSUs on" : "RSUs off", replicas,
              replicas == 1 ? "" : "s");
  std::printf("updates:    %llu originated, %llu transmissions\n",
              static_cast<unsigned long long>(m.update_packets_originated),
              static_cast<unsigned long long>(m.update_transmissions));
  std::printf("collection: %llu packets, %llu transmissions\n",
              static_cast<unsigned long long>(m.aggregation_packets),
              static_cast<unsigned long long>(m.aggregation_transmissions));
  std::printf("queries:    %llu issued, %llu ok, %llu failed (%.1f%%)\n",
              static_cast<unsigned long long>(m.queries_issued),
              static_cast<unsigned long long>(m.queries_succeeded),
              static_cast<unsigned long long>(m.queries_failed),
              100.0 * m.success_rate());
  std::printf("query cost: %llu radio tx + %llu wired msgs\n",
              static_cast<unsigned long long>(m.query_transmissions),
              static_cast<unsigned long long>(m.wired_messages));
  std::printf("delay:      mean %.1f ms  p50 %.1f  p95 %.1f  max %.1f\n",
              m.query_latency.mean_ms(), m.query_latency.p50_ms(),
              m.query_latency.p95_ms(), m.query_latency.max_ms());
  std::printf("radio:      %llu broadcasts, %llu unicasts, %llu drops, "
              "%llu route failures, %llu rebroadcasts suppressed\n",
              static_cast<unsigned long long>(m.radio_broadcasts),
              static_cast<unsigned long long>(m.radio_unicasts),
              static_cast<unsigned long long>(m.radio_drops),
              static_cast<unsigned long long>(m.gpsr_failures),
              static_cast<unsigned long long>(m.rebroadcasts_suppressed));
  if (m.fault_plan_digest != 0) {
    std::printf("faults:     availability %.1f%% (%llu/%llu in-window), "
                "recovery %.1f ms, %llu stranded\n",
                100.0 * m.availability(),
                static_cast<unsigned long long>(m.fault_queries_ok),
                static_cast<unsigned long long>(m.fault_queries_issued),
                m.recovery_ms(),
                static_cast<unsigned long long>(m.queries_stranded));
    std::printf("resilience: %llu retries, %llu failovers, %llu wired drops, "
                "%llu suppressed at down RSUs\n",
                static_cast<unsigned long long>(m.query_retries),
                static_cast<unsigned long long>(m.query_failovers),
                static_cast<unsigned long long>(m.wired_drops),
                static_cast<unsigned long long>(m.rsu_suppressed));
  }
  if (cfg.service.active()) {
    std::printf("service:    %llu offered, %llu shed (+%llu retry sheds), "
                "served %.1f%%, peak %llu outstanding\n",
                static_cast<unsigned long long>(m.queries_offered),
                static_cast<unsigned long long>(m.queries_shed),
                static_cast<unsigned long long>(m.retries_shed),
                100.0 * m.served_rate(),
                static_cast<unsigned long long>(m.peak_outstanding));
    std::printf("tier:       %llu cache hits / %llu misses, %llu invalidations; "
                "%llu queries in %llu batch flushes\n",
                static_cast<unsigned long long>(m.cache_hits),
                static_cast<unsigned long long>(m.cache_misses),
                static_cast<unsigned long long>(m.cache_invalidations),
                static_cast<unsigned long long>(m.batched_queries),
                static_cast<unsigned long long>(m.batch_flushes));
  }
  std::printf("engine:     %llu events, peak queue %llu, %.2f s wall, "
              "%.1f sim s/s\n",
              static_cast<unsigned long long>(engine.events_processed),
              static_cast<unsigned long long>(engine.peak_queue_depth),
              engine.wall_clock_sec, engine.sim_seconds_per_sec());
  std::printf("memory:     peak RSS %.1f MB, tables %.2f MB\n",
              static_cast<double>(engine.peak_rss_bytes) / 1e6,
              static_cast<double>(engine.table_bytes) / 1e6);
  for (std::size_t i = 0; i < set.digests.size(); ++i) {
    std::printf("digest:     replica %zu = %016llx\n", i,
                static_cast<unsigned long long>(set.digests[i]));
  }
  if (set.regions.configured()) {
    const RegionTelemetry::Imbalance imb = set.regions.load_imbalance();
    std::printf("regions:    %dx%d L3, load max/mean %.2f, cv %.2f\n",
                set.regions.cols(), set.regions.rows(), imb.max_over_mean,
                imb.cv);
  }

  if (!obs_out_path.empty()) {
    std::string error;
    if (!write_json_file(obs_document(set.regions, profile), obs_out_path,
                         &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("obs:        %s\n", obs_out_path.c_str());
  }

  if (!out_path.empty()) {
    BenchReport report("scenario_cli", replicas);
    report.begin_section("scenario", "run");
    report.add_result("run", protocol_name(protocol), cfg, set);
    std::string error;
    if (!report.write(out_path, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("report:     %s\n", out_path.c_str());
  }
  return 0;
}
