// Scenario description: everything needed to build and run one simulated
// world. The defaults reproduce the paper's evaluation setup: a 2 km x 2 km
// map, 300-700 vehicles at 0-60 km/h, 50 s red lights, 500 m radio range,
// 10% of vehicles querying 10% of vehicles.
#pragma once

#include <cstdint>
#include <string>

#include "core/hlsrg_config.h"
#include "fault/fault_plan.h"
#include "flood/flood_config.h"
#include "grid/partition.h"
#include "mobility/mobility_model.h"
#include "net/beacons.h"
#include "net/geocast.h"
#include "net/radio.h"
#include "rlsmp/rlsmp_config.h"
#include "roadnet/map_builder.h"
#include "service/service_config.h"
#include "sim/time.h"

namespace hlsrg {

enum class Protocol { kHlsrg, kRlsmp, kFlood };

[[nodiscard]] inline const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kHlsrg:
      return "HLSRG";
    case Protocol::kRlsmp:
      return "RLSMP";
    case Protocol::kFlood:
      return "FLOOD";
  }
  return "?";
}

struct ScenarioConfig {
  // Master seed; expands into map/mobility/radio/protocol/workload streams.
  std::uint64_t seed = 1;

  MapConfig map;
  // When non-empty, the map is loaded from this file (roadnet/map_io.h
  // format) instead of being generated from `map`.
  std::string map_file;
  PartitionConfig partition;
  MobilityConfig mobility;
  RadioConfig radio;
  // HELLO-beacon neighbor discovery for GPSR; off = genie neighborhood.
  BeaconConfig beacons;
  GeocastConfig geocast;
  HlsrgConfig hlsrg;
  RlsmpConfig rlsmp;
  FloodConfig flood;

  int vehicles = 300;

  // --- query workload -------------------------------------------------------
  // The paper's one-shot workload: `source_fraction` of vehicles each issue
  // one query for a random distinct destination at a uniform time inside the
  // query window. Every other arrival pattern is the service tier's
  // open-loop generator (service/open_loop.h): Poisson arrivals are
  // `source_fraction = 0` with `service.open_loop_rate_per_sec = r` and
  // `service.hotspot_fraction = 0`; hotspot arrivals are the same with
  // `hotspot_fraction = 1`. Hot destinations are the first
  // `hotspot_targets` vehicles (the generator clamps the set to [1, n-1]).
  double source_fraction = 0.1;
  int hotspot_targets = 5;
  SimTime warmup = SimTime::from_sec(60.0);
  SimTime query_window = SimTime::from_sec(30.0);
  // Extra time after the window so in-flight queries settle.
  SimTime grace = SimTime::from_sec(60.0);

  // Period of the observability time-series sampler (live queries, pending
  // events, table records — see trace/metrics.h). Zero disables sampling.
  SimTime sample_interval = SimTime::from_sec(5.0);

  // Wall-clock phase profiler (src/obs/profiler.h). Off by default; enabling
  // it attaches hierarchical timers to the engine hot paths. Timers read the
  // host clock only — no RNG, no events — so digests are identical either
  // way (pinned by tests/obs_test.cpp).
  bool profile = false;

  // --- heavy-traffic service tier (src/service) ------------------------------
  // Open-loop load, RSU query batching, hot-destination caching, and load
  // shedding. Disabled by default: the default config is behaviorally inert
  // (no extra RNG draws, no extra events), so paper scenarios match
  // tier-unaware builds event for event.
  ServiceTierConfig service;

  // --- fault injection -------------------------------------------------------
  // Scripted fault schedule (fault/fault_plan.h). An empty plan is the
  // default and is behaviorally inert: no injector is built, no fault RNG is
  // drawn, and determinism digests match a fault-free build. When
  // `fault_plan_file` is non-empty and the inline `fault_plan` is empty, the
  // World loads the plan from that file. A nonzero `fault_seed` overrides
  // the plan's own seed after loading.
  FaultPlan fault_plan;
  std::string fault_plan_file;
  std::uint64_t fault_seed = 0;

  [[nodiscard]] SimTime end_time() const {
    return warmup + query_window + grace;
  }
};

// The paper's headline configuration (Fig 3.3-3.5 sweeps change `vehicles`).
[[nodiscard]] inline ScenarioConfig paper_scenario(int vehicles = 500,
                                                   std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = vehicles;
  cfg.map.size_m = 2000.0;
  return cfg;
}

}  // namespace hlsrg
