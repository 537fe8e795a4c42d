// Configuration for the heavy-traffic serving tier (src/service).
//
// The tier layers four mechanisms over a protocol's query plane: an
// open-loop Poisson workload generator with a rate that can ramp (the one
// arrival process besides the paper's one-shot workload: constant-rate
// Poisson and hotspot scenarios run through it, and bench/load_knee sweeps
// it past a protocol's knee), a batching window at
// L2/L3 RSUs that aggregates co-destined queries into one wired lookup, a
// hot-destination record cache at RSUs, and admission control that sheds
// load once too many queries are outstanding. Each mechanism is on when
// its own setting is, and all default OFF: a default-constructed config
// leaves a run event-for-event identical to a tier-unaware build.
#pragma once

#include <cstddef>

#include "sim/time.h"

namespace hlsrg {

struct ServiceTierConfig {
  // --- open-loop workload ---------------------------------------------------
  // Poisson arrival rate at the start of the query window; 0 disables the
  // generator. Arrivals are scheduled on the fly from a dedicated RNG
  // stream (Simulator::open_loop_rng), so replicas stay deterministic and
  // the scenario workload draws are untouched.
  double open_loop_rate_per_sec = 0.0;
  // Linear rate ramp: rate(t) = open_loop_rate_per_sec + ramp * (t - start).
  // Negative ramps are clamped at zero.
  double open_loop_ramp_per_sec2 = 0.0;
  // Destinations are drawn from the hot set (the first
  // ScenarioConfig::hotspot_targets vehicles) with this probability; the
  // rest are uniform over the fleet. 0 gives plain Poisson arrivals, 1 a
  // pure hotspot workload.
  double hotspot_fraction = 0.8;

  // --- RSU serving capacity -------------------------------------------------
  // CPU/directory cost of one query lookup at an RSU. Each RSU processes
  // lookups serially: arrivals past its capacity wait in a FIFO, so offered
  // load beyond ~1/rsu_lookup_time per RSU queues up and the latency knee
  // becomes visible. A batched window is ONE lookup regardless of size —
  // that is what batching buys. 0 = instant lookups (the pre-tier model).
  SimTime rsu_lookup_time = SimTime{};

  // --- admission control / load shedding ------------------------------------
  // Shed new queries once this many are outstanding (hysteresis: overload
  // clears at half the bound). 0 = unlimited, never shed. While overloaded,
  // protocol retry attempts are refused as well (the query fails
  // immediately and is counted — never silently dropped).
  std::size_t max_outstanding = 0;

  // --- RSU batching window --------------------------------------------------
  bool batching = false;
  // How long the first query of a batch waits for co-destined company.
  SimTime batch_window = SimTime::from_ms(50.0);
  // Flush early once a batch reaches this many queries.
  int max_batch = 8;

  // --- hot-destination cache ------------------------------------------------
  bool caching = false;
  SimTime cache_ttl = SimTime::from_sec(10.0);
  std::size_t cache_capacity = 256;

  // True when any mechanism is on. An inactive tier still routes every
  // query through the QueryAdmission seam (one accounting point for
  // offered counts) but never sheds, caches, batches or charges a lookup,
  // and reports carry no service block.
  [[nodiscard]] bool active() const {
    return open_loop_rate_per_sec > 0.0 || open_loop_ramp_per_sec2 > 0.0 ||
           rsu_lookup_time > SimTime{} || max_outstanding > 0 || batching ||
           caching;
  }

  // Convenience: one call arms the whole tier with the given knobs.
  [[nodiscard]] static ServiceTierConfig full_tier(std::size_t max_outstanding,
                                                   SimTime batch_window,
                                                   int max_batch,
                                                   SimTime cache_ttl) {
    ServiceTierConfig c;
    c.max_outstanding = max_outstanding;
    c.batching = true;
    c.batch_window = batch_window;
    c.max_batch = max_batch;
    c.caching = true;
    c.cache_ttl = cache_ttl;
    return c;
  }
};

}  // namespace hlsrg
