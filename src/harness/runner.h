// Replica runner: executes N independent replicas of a scenario (seeds
// seed, seed+1, ...) in parallel and merges their metrics. The figure
// benches are built on this — the paper averages 10 simulations for its
// delay figure, and the others stabilize similarly.
#pragma once

#include <vector>

#include "harness/scenario.h"
#include "harness/world.h"
#include "obs/profiler.h"
#include "obs/region_telemetry.h"
#include "sim/counters.h"
#include "trace/chrome_trace.h"
#include "trace/metrics.h"

namespace hlsrg {

struct ReplicaSet {
  // Per-replica metrics, index i ran with seed cfg.seed + i.
  std::vector<RunMetrics> replicas;
  // Per-replica engine stats (events processed, wall-clock), same indexing.
  // CAVEAT: each replica's peak_rss_bytes is the *process-wide* RSS
  // high-water mark at that replica's sample time — the kernel keeps no
  // per-thread peak, so with --threads > 1 a replica's number includes
  // whatever its concurrently running siblings allocated. Use
  // engine_total.peak_rss_bytes for anything quantitative; the per-replica
  // field is only good for "how big had the process grown by then".
  std::vector<EngineStats> engine;
  // Per-replica end-state digests (harness/digest.h), same indexing. Pure
  // functions of (cfg, protocol, seed + i): any dependence on thread count
  // or run interleaving is a determinism bug.
  std::vector<std::uint64_t> digests;
  // All replicas merged (counts summed, latencies pooled).
  RunMetrics merged;
  // Engine stats aggregated across replicas (counts/times summed, peak
  // queue depth maxed). Its peak_rss_bytes is the process-wide peak sampled
  // once, after every replica has finished: the run's memory high-water
  // mark.
  EngineStats engine_total;
  // Wall-clock engine phases (build/run/digest per replica, track = replica
  // index), relative to the run_replicas entry time: the engine track of the
  // Chrome-trace exporter.
  std::vector<WallSpan> phases;
  // Observability registries of all replicas, merged (counters summed,
  // histograms pooled, time series kept from the first replica).
  MetricsRegistry observability;
  // Per-L3-region telemetry of all replicas, merged in replica order
  // (counters and traffic matrix summed, series kept from replica 0).
  RegionTelemetry regions;
  // Wall-clock phase profile merged across replicas; empty() unless
  // cfg.profile was set.
  PhaseProfiler profile;

  [[nodiscard]] double mean_update_overhead() const;
  [[nodiscard]] double mean_query_overhead() const;
  [[nodiscard]] double mean_success_rate() const;
  [[nodiscard]] double mean_query_latency_ms() const;
};

// Process-wide resident-set high-water mark (VmHWM on Linux, getrusage
// elsewhere); 0 where unsupported. Monotone over the process lifetime —
// sample after the work whose peak you want to attribute.
[[nodiscard]] std::uint64_t process_peak_rss_bytes();

// Runs `replicas` worlds of (cfg, protocol); `threads` = 0 picks a default.
// Each replica's wall-clock time is captured around its World::run().
// `trace_replica0`, when non-null, is attached to replica 0's world for its
// whole run (event + span capture for the exporters).
[[nodiscard]] ReplicaSet run_replicas(const ScenarioConfig& cfg,
                                      Protocol protocol, int replicas,
                                      std::size_t threads = 0,
                                      TraceLog* trace_replica0 = nullptr);

}  // namespace hlsrg
