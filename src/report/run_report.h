// Run report writers: the machine-readable record of one measured run —
// scenario configuration, protocol metrics, latency summary, engine
// statistics and derived headline figures — plus the `directions` block that
// tells scripts/bench_compare.py which way each key is better. Every bench
// emits these inside its BENCH_<name>.json, and scenario_cli writes a
// one-result bench document per invocation. The schema is documented in docs/PROTOCOL.md ("Bench JSON
// reports") and versioned via kBenchSchema; the metric and engine fields
// are the tables in sim/counters.h.
#pragma once

#include <cstddef>
#include <string>

#include "harness/scenario.h"
#include "report/json.h"
#include "sim/counters.h"

namespace hlsrg {

// Bumped whenever a field is renamed or changes meaning; additions are
// backward compatible and do not bump it.
inline constexpr const char* kBenchSchema = "hlsrg-bench/v1";

// The `directions` block of a report. Its groups are the report objects
// "metrics", "latency", "engine" and "derived", plus "timing" and "memory",
// which hold the keys of the "engine" object that bench_compare.py gates
// separately. Each group maps a key to "higher", "lower" or "unchanged".
class Directions {
 public:
  // Sets object[key] = value and records the key's direction in `group`.
  void set(JsonValue& object, const char* group, const std::string& key,
           JsonValue value, Better better);

  [[nodiscard]] const JsonValue& json() const { return groups_; }

 private:
  JsonValue groups_ = JsonValue::object();
};

// One measured run: protocol, config, metrics, latency (from
// metrics.query_latency) and engine. Callers append observability, profile
// and their own keys.
[[nodiscard]] JsonValue run_report_json(const std::string& protocol,
                                        const ScenarioConfig& cfg,
                                        const RunMetrics& metrics,
                                        const EngineStats& engine,
                                        Directions& directions);

[[nodiscard]] JsonValue metrics_to_json(const RunMetrics& m,
                                        Directions& directions);
[[nodiscard]] JsonValue engine_to_json(const EngineStats& e,
                                       Directions& directions);

// The headline derived metrics every figure plots, as a JSON object:
// update_overhead, query_overhead, success_rate, mean_query_latency_ms.
// `service_tier` gates the served/shed/cache-hit rate block: the admission
// seam counts offered load even with the tier off, so the config flag (not
// the counter) decides whether tier fields appear in the report.
[[nodiscard]] JsonValue derived_metrics_json(const RunMetrics& merged,
                                             bool service_tier,
                                             std::size_t replicas,
                                             Directions& directions);

}  // namespace hlsrg
