// Tunables for the HLSRG protocol. Defaults follow the paper where it gives
// numbers (expiry times, the 5 s retry); the rest are engineering choices
// documented inline and swept by the ablation benches. The back-off
// election windows are fixed by the paper (election_backoff in
// core/query_state.h).
#pragma once

#include "sim/time.h"

namespace hlsrg {

struct HlsrgConfig {
  // --- geometry -----------------------------------------------------------
  // Radius around a grid-center intersection within which a vehicle counts
  // as "driving in the grid center" (collects updates, serves queries). The
  // paper speaks of "the range of the intersection"; 150 m covers the
  // intersection plus red-light queues on its four approaches, and keeps the
  // expected center occupancy around two vehicles at the paper's densities.
  double center_radius_m = 150.0;

  // --- table freshness (paper 2.2.2) --------------------------------------
  SimTime l1_expiry = SimTime::from_min(2.2);
  SimTime l2_expiry = SimTime::from_min(2.2);
  SimTime l3_expiry = SimTime::from_min(4.4);

  // --- query handling (paper 2.3) ------------------------------------------
  // "a vehicle can send a location request packet to its nearest Level 3 RSU
  // directly if it doesn't receive an ACK after sending a request packet 5
  // seconds".
  SimTime ack_timeout = SimTime::from_sec(5.0);
  // Attempts before the query is declared failed: first try to the nearest
  // level center, then the direct-to-L3 fallback.
  int max_attempts = 2;
  // Retry backoff: attempt k waits ack_timeout * base^(k-1), capped. Base
  // 1.0 (the paper's flat 5 s) keeps timings bit-identical to the
  // pre-backoff protocol; chaos plans raise it so retries outlast outages.
  double retry_backoff_base = 1.0;
  SimTime retry_backoff_cap = SimTime::from_sec(30.0);
  // Failure escalation: when the wired plane cannot reach the home RSU the
  // sender reroutes over the radio to a sibling L3 (RSU side), and from the
  // third attempt on the requester rotates its direct-to-L3 target across
  // L3 RSUs by distance. Only ever exercised after a wired send fails or on
  // attempt > 2, so fault-free runs are untouched by the flag.
  bool enable_failover = true;

  // --- infrastructure churn (parked-cars-as-RSUs, PR-9) ---------------------
  // When true, the L2/L3 roles are not fixed hardware: each role is hosted
  // by the nearest parked vehicle within host_radius_m of its grid center
  // (lowest-id tiebreak), roles with no candidate start vacant (down), and a
  // departing host triggers deterministic successor election plus a
  // kRoleHandoff table transfer. Off (the default) nothing churn-related is
  // constructed, so runs are byte-identical to the fixed-RSU world.
  bool parked_rsu_hosting = false;
  // Eligibility radius for host candidates around the role's grid center.
  double host_radius_m = 400.0;
  // Ship the outgoing host's tables to the successor (radio) or, with no
  // successor, to the absorbing parent/sibling (wired). Off = every
  // departure is treated as abrupt: records expire and successors rebuild
  // from beacons only (the no-handoff control in bench/churn_frontier).
  bool enable_handoff = true;
  // Vacant roles are re-checked for candidates this long after a vehicle
  // parks nearby (lets the parker settle before it is drafted).
  SimTime role_fill_delay = SimTime::from_sec(2.0);
  // An abrupt (fault-forced) departure is only noticed at the next detect
  // sweep — the successor starts this much later and rebuilds from beacons.
  SimTime churn_detect_delay = SimTime::from_sec(5.0);

  // --- ablation switches ----------------------------------------------------
  // Paper rules suppress updates from vehicles driving straight on selected
  // arteries. Off = every vehicle uses the class-2 rules (A1 ablation).
  bool suppress_artery_updates = true;
  // Degenerate mode: update on every L1 boundary crossing regardless of road
  // class (the "recent researches" strawman in the paper's introduction).
  bool naive_every_crossing = false;
  // RSUs at L2/L3 centers. Off = vehicle-only collection; upward forwards
  // die and queries can only be served from L1 centers (A2 ablation).
  bool use_rsus = true;
};

// L2 RSUs push summaries to their L3 RSU "periodically" (paper 2.2.2); L3
// RSUs exchange summaries so "any Level 3 RSU owns vehicle's information",
// realized as periodic neighbor gossip. Both cadences are engineering
// choices.
inline constexpr SimTime kL2PushPeriod = SimTime::from_sec(10.0);
inline constexpr SimTime kL3GossipPeriod = SimTime::from_sec(15.0);

// Timeout armed for query attempt k (1-based): ack_timeout * base^(k-1),
// capped. Exactly ack_timeout for every attempt when base == 1.0.
[[nodiscard]] inline SimTime retry_timeout(const HlsrgConfig& cfg,
                                           int attempt) {
  if (cfg.retry_backoff_base == 1.0) return cfg.ack_timeout;
  double scale = 1.0;
  for (int k = 1; k < attempt; ++k) scale *= cfg.retry_backoff_base;
  const double us = static_cast<double>(cfg.ack_timeout.us()) * scale;
  const double cap = static_cast<double>(cfg.retry_backoff_cap.us());
  return SimTime::from_us(static_cast<std::int64_t>(us < cap ? us : cap));
}

}  // namespace hlsrg
