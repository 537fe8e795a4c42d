#include "report/run_report.h"

#include <functional>
#include <utility>

namespace hlsrg {

namespace {

const char* better_name(Better better) {
  switch (better) {
    case Better::kHigher:
      return "higher";
    case Better::kLower:
      return "lower";
    case Better::kUnchanged:
      return "unchanged";
  }
  return "unchanged";
}

const char* gate_group(EngineGate gate) {
  switch (gate) {
    case EngineGate::kEngine:
      return "engine";
    case EngineGate::kTiming:
      return "timing";
    case EngineGate::kMemory:
      return "memory";
  }
  return "engine";
}

JsonValue scenario_to_json(const ScenarioConfig& cfg) {
  JsonValue o = JsonValue::object();
  o.set("seed", cfg.seed);
  o.set("vehicles", cfg.vehicles);
  o.set("map_size_m", cfg.map.size_m);
  o.set("map_irregular", cfg.map.irregular);
  if (!cfg.map_file.empty()) o.set("map_file", cfg.map_file);
  o.set("partition_target_m", cfg.partition.target_size);
  o.set("radio_range_m", cfg.radio.range_m);
  o.set("source_fraction", cfg.source_fraction);
  o.set("hotspot_targets", cfg.hotspot_targets);
  o.set("warmup_sec", cfg.warmup.sec());
  o.set("query_window_sec", cfg.query_window.sec());
  o.set("grace_sec", cfg.grace.sec());
  o.set("sample_interval_sec", cfg.sample_interval.sec());
  // Only when set, so profiler-free reports stay byte-identical to older
  // builds (same pattern as the service-tier block below).
  if (cfg.profile) o.set("profile", cfg.profile);
  o.set("parked_fraction", cfg.mobility.parked_fraction);
  o.set("use_rsus", cfg.hlsrg.use_rsus);
  o.set("suppress_artery_updates", cfg.hlsrg.suppress_artery_updates);
  o.set("naive_every_crossing", cfg.hlsrg.naive_every_crossing);
  o.set("l1_expiry_sec", cfg.hlsrg.l1_expiry.sec());
  o.set("l2_expiry_sec", cfg.hlsrg.l2_expiry.sec());
  o.set("l3_expiry_sec", cfg.hlsrg.l3_expiry.sec());
  o.set("beacons_enabled", cfg.beacons.enabled);
  o.set("beacon_interval_sec", cfg.beacons.interval_sec);
  if (!cfg.fault_plan_file.empty()) {
    o.set("fault_plan_file", cfg.fault_plan_file);
  }
  if (cfg.fault_seed != 0) o.set("fault_seed", cfg.fault_seed);
  if (cfg.hlsrg.parked_rsu_hosting || cfg.mobility.churn.enabled) {
    // Churn block only when parked hosting / the parking lifecycle runs, so
    // churn-free reports stay byte-identical to pre-churn builds.
    o.set("parked_rsu_hosting", cfg.hlsrg.parked_rsu_hosting);
    o.set("host_radius_m", cfg.hlsrg.host_radius_m);
    o.set("enable_handoff", cfg.hlsrg.enable_handoff);
    o.set("role_fill_delay_sec", cfg.hlsrg.role_fill_delay.sec());
    o.set("churn_detect_delay_sec", cfg.hlsrg.churn_detect_delay.sec());
    o.set("churn_enabled", cfg.mobility.churn.enabled);
    o.set("park_rate_per_sec", cfg.mobility.churn.park_rate_per_sec);
    o.set("dwell_mean_sec", cfg.mobility.churn.dwell_mean_sec);
    o.set("min_dwell_sec", cfg.mobility.churn.min_dwell_sec);
  }
  if (cfg.service.active()) {
    // Service-tier block only when the tier runs, so tier-free reports stay
    // byte-identical to pre-tier builds.
    o.set("open_loop_rate_per_sec", cfg.service.open_loop_rate_per_sec);
    o.set("open_loop_ramp_per_sec2", cfg.service.open_loop_ramp_per_sec2);
    o.set("hotspot_fraction", cfg.service.hotspot_fraction);
    o.set("rsu_lookup_sec", cfg.service.rsu_lookup_time.sec());
    o.set("max_outstanding", cfg.service.max_outstanding);
    o.set("batching", cfg.service.batching);
    o.set("batch_window_sec", cfg.service.batch_window.sec());
    o.set("max_batch", cfg.service.max_batch);
    o.set("caching", cfg.service.caching);
    o.set("cache_ttl_sec", cfg.service.cache_ttl.sec());
    o.set("cache_capacity", cfg.service.cache_capacity);
  }
  return o;
}

// The delay summary over the pooled successful-query samples.
JsonValue latency_to_json(const LatencyStat& l, Directions& directions) {
  JsonValue o = JsonValue::object();
  const auto put = [&](const char* key, JsonValue value, Better better) {
    directions.set(o, "latency", key, std::move(value), better);
  };
  put("count", l.count(), Better::kUnchanged);
  put("mean_ms", l.mean_ms(), Better::kLower);
  put("min_ms", l.min_ms(), Better::kUnchanged);
  put("max_ms", l.max_ms(), Better::kLower);
  put("p50_ms", l.p50_ms(), Better::kLower);
  put("p90_ms", l.p90_ms(), Better::kLower);
  put("p95_ms", l.p95_ms(), Better::kLower);
  put("p99_ms", l.p99_ms(), Better::kLower);
  return o;
}

}  // namespace

void Directions::set(JsonValue& object, const char* group,
                     const std::string& key, JsonValue value, Better better) {
  object.set(key, std::move(value));
  if (groups_.at(group).contains(key)) return;
  JsonValue keys = groups_.at(group);
  keys.set(key, better_name(better));
  groups_.set(group, std::move(keys));
}

JsonValue metrics_to_json(const RunMetrics& m, Directions& directions) {
  JsonValue o = JsonValue::object();
  RunMetrics::for_each_field(
      [&](const MetricSpec& spec, std::uint64_t RunMetrics::*field) {
        directions.set(o, "metrics", spec.name, m.*field, spec.better);
      });
  return o;
}

JsonValue engine_to_json(const EngineStats& e, Directions& directions) {
  JsonValue o = JsonValue::object();
  EngineStats::for_each_key([&](const EngineSpec& spec, auto key) {
    directions.set(o, gate_group(spec.gate), spec.name, std::invoke(key, e),
                   spec.better);
  });
  return o;
}

JsonValue derived_metrics_json(const RunMetrics& merged, bool service_tier,
                               std::size_t replicas, Directions& directions) {
  const double n = replicas == 0 ? 1.0 : static_cast<double>(replicas);
  JsonValue o = JsonValue::object();
  const auto put = [&](const char* key, double value, Better better) {
    directions.set(o, "derived", key, value, better);
  };
  put("update_overhead",
      static_cast<double>(merged.total_update_overhead()) / n, Better::kLower);
  put("query_overhead", static_cast<double>(merged.total_query_overhead()) / n,
      Better::kLower);
  put("success_rate", merged.success_rate(), Better::kHigher);
  put("mean_query_latency_ms", merged.query_latency.mean_ms(), Better::kLower);
  put("query_delay_p50_ms", merged.query_latency.p50_ms(), Better::kLower);
  put("query_delay_p90_ms", merged.query_latency.p90_ms(), Better::kLower);
  put("query_delay_p95_ms", merged.query_latency.p95_ms(), Better::kLower);
  put("query_delay_p99_ms", merged.query_latency.p99_ms(), Better::kLower);
  if (merged.fault_plan_digest != 0) {
    // Fault-run derived block: only present when a fault plan ran, so
    // fault-free reports are byte-identical to pre-fault builds.
    put("availability", merged.availability(), Better::kHigher);
    put("recovery_ms", merged.recovery_ms(), Better::kLower);
    put("queries_stranded", static_cast<double>(merged.queries_stranded) / n,
        Better::kLower);
  }
  if (merged.churn_active != 0) {
    // Churn derived block: only present when parked hosting ran, so
    // churn-free reports are byte-identical to pre-churn builds.
    put("handoff_record_delivery_rate", merged.handoff_record_delivery_rate(),
        Better::kHigher);
    put("role_departures", static_cast<double>(merged.role_departures) / n,
        Better::kUnchanged);
    put("role_continuity",
        merged.role_departures == 0
            ? 1.0
            : static_cast<double>(merged.role_elections) /
                  static_cast<double>(merged.role_departures),
        Better::kHigher);
  }
  if (service_tier && merged.queries_offered > 0) {
    // Service-tier derived block: only present when the tier ran, so
    // tier-free reports stay byte-identical to pre-tier builds.
    put("served_rate", merged.served_rate(), Better::kHigher);
    put("shed_rate",
        static_cast<double>(merged.queries_shed) /
            static_cast<double>(merged.queries_offered),
        Better::kLower);
    put("cache_hit_rate",
        merged.cache_hits + merged.cache_misses == 0
            ? 0.0
            : static_cast<double>(merged.cache_hits) /
                  static_cast<double>(merged.cache_hits + merged.cache_misses),
        Better::kHigher);
  }
  return o;
}

JsonValue run_report_json(const std::string& protocol,
                          const ScenarioConfig& cfg, const RunMetrics& metrics,
                          const EngineStats& engine, Directions& directions) {
  JsonValue o = JsonValue::object();
  o.set("protocol", protocol);
  o.set("config", scenario_to_json(cfg));
  o.set("metrics", metrics_to_json(metrics, directions));
  o.set("latency", latency_to_json(metrics.query_latency, directions));
  o.set("engine", engine_to_json(engine, directions));
  return o;
}

}  // namespace hlsrg
