#include "harness/runner.h"

#if defined(__linux__)
#include <fstream>
#include <string>
#elif defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "harness/digest.h"
#include "harness/parallel.h"
#include "util/check.h"

namespace hlsrg {

std::uint64_t process_peak_rss_bytes() {
#if defined(__linux__)
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across fork +
  // exec, so a bench started from a large process would report that
  // process's footprint.
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
#elif defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // macOS reports ru_maxrss in bytes, the other unixes in KiB.
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

// The same merged / n formula as derived_metrics_json's headline overheads.
double ReplicaSet::mean_update_overhead() const {
  if (replicas.empty()) return 0.0;
  return static_cast<double>(merged.total_update_overhead()) /
         static_cast<double>(replicas.size());
}

double ReplicaSet::mean_query_overhead() const {
  if (replicas.empty()) return 0.0;
  return static_cast<double>(merged.total_query_overhead()) /
         static_cast<double>(replicas.size());
}

double ReplicaSet::mean_success_rate() const {
  // Pooled: total successes over total queries across replicas.
  return merged.success_rate();
}

double ReplicaSet::mean_query_latency_ms() const {
  return merged.query_latency.mean_ms();
}

ReplicaSet run_replicas(const ScenarioConfig& cfg, Protocol protocol,
                        int replicas, std::size_t threads,
                        TraceLog* trace_replica0) {
  HLSRG_CHECK(replicas >= 1);
  ReplicaSet out;
  const auto n = static_cast<std::size_t>(replicas);
  out.replicas.resize(n);
  out.engine.resize(n);
  out.digests.resize(n);
  // Three phases per replica, written by index — no locking needed.
  out.phases.resize(n * 3);
  std::vector<MetricsRegistry> registries(n);
  std::vector<RegionTelemetry> regions(n);
  std::vector<PhaseProfiler> profiles(n);
  if (threads == 0) {
    threads = default_thread_count(n);
  }
  // All wall-clock reads go through the sanctioned obs clock (see
  // src/obs/profiler.h); raw <chrono> stays confined to that TU.
  const double epoch = monotonic_now_sec();
  const auto since_epoch = [epoch] { return monotonic_now_sec() - epoch; };
  parallel_for(n, threads, [&](std::size_t i) {
    ScenarioConfig replica_cfg = cfg;
    replica_cfg.seed = cfg.seed + i;
    const int rep = static_cast<int>(i);
    const double start = monotonic_now_sec();
    const double build_begin = since_epoch();
    World world(replica_cfg, protocol);
    if (i == 0 && trace_replica0 != nullptr) {
      world.attach_trace(trace_replica0);
    }
    const double build_end = since_epoch();
    out.phases[i * 3] = WallSpan{"build", rep, build_begin, build_end};
    out.replicas[i] = world.run();
    const double stop = monotonic_now_sec();
    const double run_end = since_epoch();
    out.phases[i * 3 + 1] = WallSpan{"run", rep, build_end, run_end};
    out.digests[i] = state_digest(world);
    out.phases[i * 3 + 2] = WallSpan{"digest", rep, run_end, since_epoch()};
    out.engine[i] = world.sim().engine_stats();
    out.engine[i].wall_clock_sec = stop - start;
    // Process peak at sample time, NOT this replica's own footprint — see
    // the ReplicaSet field comment. Kept per replica only as a growth
    // timeline; the once-per-run sample below is the quantitative one.
    out.engine[i].peak_rss_bytes = process_peak_rss_bytes();
    // End-of-run protocol-state footprint: tables + registry, one replica.
    out.engine[i].table_bytes = world.service().service_stats().table_bytes;
    out.engine[i].index_rebuilds = world.medium().index().rebuilds();
    out.engine[i].density_recounts = world.medium().index().density_recounts();
    registries[i] = world.sim().observability();
    regions[i] = world.regions();
    if (world.profiler() != nullptr) profiles[i] = *world.profiler();
  });
  // The run's true peak: sampled once, after every replica has finished.
  out.peak_rss_bytes = process_peak_rss_bytes();
  // Merge in replica order (not completion order) so the aggregate is a pure
  // function of the replica results regardless of thread interleaving.
  for (const RunMetrics& m : out.replicas) out.merged.merge(m);
  for (const EngineStats& e : out.engine) out.engine_total.merge(e);
  // engine_total's RSS is the run-level sample, not the max of the
  // per-replica process snapshots (same number in practice, but this one
  // has defined semantics).
  out.engine_total.peak_rss_bytes = out.peak_rss_bytes;
  for (const MetricsRegistry& r : registries) out.observability.merge(r);
  for (const RegionTelemetry& r : regions) out.regions.merge(r);
  for (const PhaseProfiler& p : profiles) out.profile.merge(p);
  return out;
}

}  // namespace hlsrg
