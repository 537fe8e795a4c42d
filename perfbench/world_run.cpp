// One benchmark world per process. Builds the named workload's HLSRG world on
// the generated Manhattan map, runs it to its horizon, audits it, and prints
// one JSON object of raw measurements on stdout: host times taken around
// public calls, exact work counts, the per-kind packet ledger, the metrics
// registry, the query delays and the state digest. perfbench/run.py launches
// this binary, repeats it, cross-checks the outputs and turns them into the
// benchmark's metrics. One world per process makes the process peak RSS the
// footprint of that world.
//
//   world_run --workload NAME --seed N [--setups K] [--profile] [--small]
//
//   --setups K  report K construction times: the world that runs, then
//               K-1 more constructions after it is destroyed
//   --profile   set ScenarioConfig::profile, export the profiler nodes, and
//               time the standalone layer replays (map + partition, mobility,
//               neighbor index)
//   --small     the reduced-size variant the benchmark's self-check runs
//
// Exit status 0 with the JSON printed, 2 on a usage error. Audit findings and
// open ledger rows are reported in the JSON for the caller to judge.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "grid/hierarchy.h"
#include "grid/partition.h"
#include "harness/digest.h"
#include "harness/scenario.h"
#include "harness/world.h"
#include "mobility/mobility_model.h"
#include "net/neighbor_index.h"
#include "net/node_registry.h"
#include "net/packet.h"
#include "obs/profiler.h"
#include "report/json.h"
#include "roadnet/map_builder.h"
#include "sim/simulator.h"

namespace {

using namespace hlsrg;

constexpr int kReplayRepeats = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int setups = 1;
  bool profile = false;
  bool small = false;
};

// --- workloads (BENCHMARK.json records why each was chosen) -----------------

ScenarioConfig paper_dense(std::uint64_t seed) {
  // 2 km map (one L3 region) at twice the paper's density; one-shot queries
  // from 5% of the vehicles at uniform times in a 10 s window, i.e. 5 q/s.
  // The cost of a world varies ~25% with its seed (the notification storms
  // depend on where the vehicles bunch), so short worlds pooled in numbers
  // give steadier figures than one long world for the same host time.
  ScenarioConfig cfg = paper_scenario(1000, seed);
  cfg.source_fraction = 0.05;
  cfg.query_window = SimTime::from_sec(10.0);
  cfg.grace = SimTime::from_sec(20.0);
  return cfg;
}

ScenarioConfig city_maintenance(std::uint64_t seed) {
  // 8 km map (4x4 L3 regions) at the paper's density with 0.5% query
  // sources, so the query-free warmup and its table upkeep dominate.
  ScenarioConfig cfg = paper_scenario(8000, seed);
  cfg.map.size_m = 8000.0;
  cfg.source_fraction = 0.005;
  cfg.query_window = SimTime::from_sec(15.0);
  cfg.grace = SimTime::from_sec(15.0);
  return cfg;
}

ScenarioConfig hotspot_service(std::uint64_t seed) {
  // 4 km map (2x2 L3 regions) with the service tier on: open-loop Poisson
  // arrivals, 80% of destinations among 5 hot vehicles, batching, caching
  // and shedding, and the load_knee bench's 40 ms RSU lookup cost.
  ScenarioConfig cfg = paper_scenario(1500, seed);
  cfg.map.size_m = 4000.0;
  cfg.source_fraction = 0.0;
  cfg.hotspot_targets = 5;
  cfg.query_window = SimTime::from_sec(40.0);
  cfg.grace = SimTime::from_sec(20.0);
  cfg.service = ServiceTierConfig::full_tier(
      256, SimTime::from_ms(40.0), 8, SimTime::from_sec(15.0));
  cfg.service.cache_capacity = 512;
  cfg.service.open_loop_rate_per_sec = 35.0;
  cfg.service.hotspot_fraction = 0.8;
  cfg.service.rsu_lookup_time = SimTime::from_ms(40.0);
  return cfg;
}

std::optional<ScenarioConfig> make_workload(const Options& opt) {
  std::optional<ScenarioConfig> cfg;
  if (opt.workload == "paper_dense") cfg = paper_dense(opt.seed);
  if (opt.workload == "city_maintenance") cfg = city_maintenance(opt.seed);
  if (opt.workload == "hotspot_service") cfg = hotspot_service(opt.seed);
  if (cfg && opt.small) {
    // Same map and mechanisms with a quarter of the fleet and every phase
    // halved: a few host seconds for the whole self-check.
    cfg->vehicles /= 4;
    cfg->warmup = SimTime::from_us(cfg->warmup.us() / 2);
    cfg->query_window = SimTime::from_us(cfg->query_window.us() / 2);
    cfg->grace = SimTime::from_us(cfg->grace.us() / 2);
  }
  return cfg;
}

bool parse_options(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      opt->workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      char* end = nullptr;
      opt->seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(argv[i], "--setups") == 0 && has_value) {
      opt->setups = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      opt->profile = true;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      opt->small = true;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->setups >= 1;
}

// Peak resident set of this process image: VmHWM from /proc/self/status.
// getrusage's ru_maxrss is not usable here, because Linux carries the
// parent's high-water mark into it across fork + exec, so a child of a large
// parent process would report the parent's footprint.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

JsonValue ns_list(const std::vector<std::uint64_t>& ns) {
  JsonValue a = JsonValue::array();
  for (std::uint64_t v : ns) a.push_back(v);
  return a;
}

// --- exports -----------------------------------------------------------------

JsonValue metrics_json(const RunMetrics& m) {
  JsonValue o = JsonValue::object();
  o.set("update_packets_originated", m.update_packets_originated);
  o.set("aggregation_packets", m.aggregation_packets);
  o.set("queries_offered", m.queries_offered);
  o.set("queries_issued", m.queries_issued);
  o.set("queries_succeeded", m.queries_succeeded);
  o.set("queries_failed", m.queries_failed);
  o.set("queries_shed", m.queries_shed);
  o.set("retries_shed", m.retries_shed);
  o.set("query_transmissions", m.query_transmissions);
  o.set("query_retries", m.query_retries);
  o.set("server_lookup_hits", m.server_lookup_hits);
  o.set("server_lookup_misses", m.server_lookup_misses);
  o.set("rsu_lookup_hits", m.rsu_lookup_hits);
  o.set("rsu_lookup_misses", m.rsu_lookup_misses);
  o.set("notifications_sent", m.notifications_sent);
  o.set("radio_broadcasts", m.radio_broadcasts);
  o.set("radio_unicasts", m.radio_unicasts);
  o.set("radio_drops", m.radio_drops);
  o.set("wired_messages", m.wired_messages);
  o.set("wired_drops", m.wired_drops);
  o.set("gpsr_failures", m.gpsr_failures);
  o.set("cache_hits", m.cache_hits);
  o.set("cache_misses", m.cache_misses);
  o.set("batched_queries", m.batched_queries);
  o.set("batch_flushes", m.batch_flushes);
  o.set("peak_outstanding", m.peak_outstanding);
  return o;
}

// Per-kind channel ledger by kind name, plus the kinds whose conservation
// row (offered == delivered + dropped) does not close.
JsonValue ledger_json(const PacketLedger& ledger, JsonValue* open_kinds) {
  JsonValue o = JsonValue::object();
  for (int k = 0; k < static_cast<int>(PacketLedger::kSlots); ++k) {
    if (ledger.offered(k) + ledger.shed(k) == 0) continue;
    const char* name = packet_kind_name(static_cast<PacketKind>(k));
    JsonValue row = JsonValue::object();
    row.set("offered", ledger.offered(k));
    row.set("delivered", ledger.delivered(k));
    row.set("dropped", ledger.dropped(k));
    row.set("shed", ledger.shed(k));
    o.set(name, std::move(row));
    if (ledger.offered(k) != ledger.delivered(k) + ledger.dropped(k)) {
      open_kinds->push_back(name);
    }
  }
  return o;
}

JsonValue registry_json(const MetricsRegistry& reg) {
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : reg.counters()) counters.set(name, value);
  JsonValue hists = JsonValue::object();
  for (const auto& [name, h] : reg.histograms()) {
    JsonValue row = JsonValue::object();
    row.set("count", h.count());
    row.set("sum", h.sum());
    row.set("mean", h.mean());
    row.set("p50", h.quantile(0.50));
    row.set("p90", h.quantile(0.90));
    row.set("p99", h.quantile(0.99));
    hists.set(name, std::move(row));
  }
  JsonValue o = JsonValue::object();
  o.set("counters", std::move(counters));
  o.set("histograms", std::move(hists));
  return o;
}

// Profiler nodes summed by name over the whole tree (a scope such as
// radio_broadcast opens under several parents).
JsonValue profile_json(const PhaseProfiler& prof) {
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t inclusive_ns = 0;
    std::uint64_t exclusive_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const PhaseProfiler::Node& n : prof.nodes()) {
    if (n.parent < 0) continue;
    Totals& t = by_name[n.name];
    t.calls += n.calls;
    t.inclusive_ns += n.inclusive_ns;
    t.exclusive_ns += n.exclusive_ns();
  }
  JsonValue o = JsonValue::object();
  for (const auto& [name, t] : by_name) {
    JsonValue row = JsonValue::object();
    row.set("calls", t.calls);
    row.set("inclusive_ns", t.inclusive_ns);
    row.set("exclusive_ns", t.exclusive_ns);
    o.set(name, std::move(row));
  }
  return o;
}

// --- standalone layer replays (--profile) ------------------------------------

// Map generation, road-adapted partition and grid hierarchy, as World's
// constructor runs them.
JsonValue partition_replay(const ScenarioConfig& cfg) {
  std::vector<std::uint64_t> ns;
  for (int i = 0; i < kReplayRepeats; ++i) {
    const std::uint64_t t0 = monotonic_now_ns();
    const RoadNetwork net = build_manhattan_map(cfg.map);
    const GridHierarchy hierarchy(net, build_partition(net, cfg.partition));
    ns.push_back(monotonic_now_ns() - t0);
  }
  JsonValue o = JsonValue::object();
  o.set("ns", ns_list(ns));
  return o;
}

class MoveCounter final : public MovementListener {
 public:
  void on_moved(VehicleId, Vec2, Vec2) override { ++moves; }
  std::uint64_t moves = 0;
};

// The world's fleet on the world's map, driven by mobility alone: the same
// seed splits the same mobility stream, so the trajectories match the run.
JsonValue mobility_replay(const ScenarioConfig& cfg) {
  Simulator sim(cfg.seed);
  const RoadNetwork net = build_manhattan_map(cfg.map);
  MobilityModel mobility(sim, net, cfg.mobility);
  mobility.place_random_vehicles(cfg.vehicles);
  MoveCounter counter;
  mobility.add_listener(&counter);
  mobility.start();
  const std::uint64_t t0 = monotonic_now_ns();
  sim.run_until(cfg.end_time());
  const std::uint64_t ns = monotonic_now_ns() - t0;
  JsonValue o = JsonValue::object();
  o.set("ns", ns);
  o.set("moves", counter.moves);
  return o;
}

// refresh + query_with_density for every node over a registry snapshot,
// exactly the walk RadioMedium::broadcast makes per transmission.
JsonValue neighbor_replay(const ScenarioConfig& cfg,
                          const NodeRegistry& snapshot, SimTime at) {
  std::vector<std::uint64_t> ns;
  std::uint64_t receivers = 0;
  std::vector<NodeId> out;
  std::vector<std::int32_t> density;
  for (int i = 0; i < kReplayRepeats; ++i) {
    NeighborIndex index(snapshot, cfg.radio.range_m,
                        cfg.radio.contention_free_neighbors);
    receivers = 0;
    const std::uint64_t t0 = monotonic_now_ns();
    index.refresh(at);
    for (std::size_t n = 0; n < snapshot.count(); ++n) {
      const NodeId id{n};
      out.clear();
      density.clear();
      index.query_with_density(snapshot.position(id), cfg.radio.range_m, id,
                               &out, &density);
      receivers += out.size();
    }
    ns.push_back(monotonic_now_ns() - t0);
  }
  JsonValue o = JsonValue::object();
  o.set("ns", ns_list(ns));
  o.set("walks", static_cast<std::uint64_t>(snapshot.count()));
  o.set("receivers", receivers);
  return o;
}

// --- the run -------------------------------------------------------------------

JsonValue run(const ScenarioConfig& cfg, const Options& opt) {
  ScenarioConfig world_cfg = cfg;
  world_cfg.profile = opt.profile;

  std::vector<std::uint64_t> setup_ns;
  const std::uint64_t t_setup = monotonic_now_ns();
  auto world = std::make_unique<World>(world_cfg, Protocol::kHlsrg);
  setup_ns.push_back(monotonic_now_ns() - t_setup);

  const std::uint64_t t0 = monotonic_now_ns();
  world->run_until(cfg.warmup);
  const std::uint64_t t1 = monotonic_now_ns();
  // Taken between the two timed phases; only the replay reads it.
  std::optional<NodeRegistry> snapshot;
  if (opt.profile) snapshot = world->registry();
  const std::uint64_t t2 = monotonic_now_ns();
  const RunMetrics& m = world->run();
  const std::uint64_t t3 = monotonic_now_ns();
  const std::uint64_t peak_rss = peak_rss_bytes();

  JsonValue out = JsonValue::object();
  out.set("workload", opt.workload);
  out.set("seed", opt.seed);
  out.set("vehicles", cfg.vehicles);
  out.set("sim_seconds", cfg.end_time().sec());
  out.set("warmup_seconds", cfg.warmup.sec());
  out.set("window_seconds", cfg.query_window.sec());
  out.set("warmup_ns", t1 - t0);
  out.set("query_phase_ns", t3 - t2);
  out.set("peak_rss_bytes", peak_rss);

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(state_digest(*world)));
  out.set("digest", digest);
  const AuditReport audit = world->audit_now();
  JsonValue findings = JsonValue::array();
  for (const AuditViolation& v : audit.violations()) {
    findings.push_back(v.auditor + ": " + v.what);
  }
  out.set("audit_findings", std::move(findings));
  JsonValue open_kinds = JsonValue::array();
  out.set("ledger", ledger_json(m.channel, &open_kinds));
  out.set("ledger_open_kinds", std::move(open_kinds));

  out.set("metrics", metrics_json(m));
  QueryTracker& tracker = world->service().tracker();
  JsonValue delays = JsonValue::array();
  for (QueryTracker::QueryId id = 0; id < tracker.count(); ++id) {
    if (tracker.succeeded(id)) delays.push_back(tracker.latency(id).us());
  }
  out.set("delays_us", std::move(delays));
  // The simulator's own percentiles, so the caller can check that its
  // pooled percentiles follow the same nearest-rank rule.
  JsonValue latency = JsonValue::object();
  latency.set("count", m.query_latency.count());
  latency.set("p50_ms", m.query_latency.p50_ms());
  latency.set("p90_ms", m.query_latency.p90_ms());
  latency.set("p99_ms", m.query_latency.p99_ms());
  out.set("latency", std::move(latency));
  out.set("queries_unsettled",
          static_cast<std::uint64_t>(tracker.outstanding()));

  const EngineStats engine = world->sim().engine_stats();
  JsonValue eng = JsonValue::object();
  eng.set("events_dispatched", engine.events_processed);
  eng.set("events_scheduled", engine.events_scheduled);
  eng.set("peak_queue_depth", engine.peak_queue_depth);
  out.set("engine", std::move(eng));
  out.set("registry", registry_json(world->sim().observability()));
  const ServiceStats stats = world->service().service_stats();
  out.set("table_records", static_cast<std::uint64_t>(stats.table_records));
  out.set("table_bytes", static_cast<std::uint64_t>(stats.table_bytes));

  if (opt.profile) out.set("profile", profile_json(*world->profiler()));
  world.reset();

  // The remaining constructions come after the peak-RSS sample, so the
  // sample stays the footprint of the one world that ran.
  for (int i = 1; i < opt.setups; ++i) {
    const std::uint64_t t = monotonic_now_ns();
    world = std::make_unique<World>(world_cfg, Protocol::kHlsrg);
    setup_ns.push_back(monotonic_now_ns() - t);
    world.reset();
  }
  out.set("setup_ns", ns_list(setup_ns));

  if (opt.profile) {
    out.set("partition_replay", partition_replay(cfg));
    out.set("mobility_replay", mobility_replay(cfg));
    out.set("neighbor_replay", neighbor_replay(cfg, *snapshot, cfg.warmup));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload paper_dense|city_maintenance|"
                 "hotspot_service --seed N [--setups K] [--profile] "
                 "[--small]\n",
                 argv[0]);
    return 2;
  }
  const std::optional<ScenarioConfig> cfg = make_workload(opt);
  if (!cfg) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  std::printf("%s\n", run(*cfg, opt).dump().c_str());
  return 0;
}
