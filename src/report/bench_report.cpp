#include "report/bench_report.h"

#include <cstdio>

#include "trace/metrics.h"
#include "util/check.h"

namespace hlsrg {

BenchReport::BenchReport(std::string bench_name, int replicas)
    : bench_(std::move(bench_name)), replicas_(replicas) {}

void BenchReport::begin_section(const std::string& title,
                                const std::string& metric) {
  sections_.push_back(Section{title, metric, {}});
}

void BenchReport::add_result(const std::string& label,
                             const std::string& protocol,
                             const ScenarioConfig& cfg, const ReplicaSet& set) {
  HLSRG_CHECK_MSG(!sections_.empty(),
                  "begin_section must precede add_result");
  Section& section = sections_.back();
  Row* row = nullptr;
  for (Row& r : section.rows) {
    if (r.label == label) {
      row = &r;
      break;
    }
  }
  if (row == nullptr) {
    section.rows.push_back(Row{label, {}});
    row = &section.rows.back();
  }

  JsonValue entry = run_report_json(protocol, cfg, set.merged,
                                    set.engine_total, directions_);
  entry.set("observability", registry_to_json(set.observability));
  if (!set.profile.empty()) entry.set("profile", set.profile.to_json());
  JsonValue per_replica = JsonValue::array();
  for (const EngineStats& e : set.engine) {
    per_replica.push_back(engine_to_json(e, directions_));
  }
  entry.set("replica_engine", std::move(per_replica));
  JsonValue derived = derived_metrics_json(set.merged, cfg.service.active(),
                                           set.replicas.size(), directions_);
  if (set.regions.configured()) {
    // Region load-imbalance summary (obs/region_telemetry.h): how unevenly
    // the merged delivery load spread over the L3 regions.
    const RegionTelemetry::Imbalance imb = set.regions.load_imbalance();
    directions_.set(derived, "derived", "region_load_max_over_mean",
                    imb.max_over_mean, Better::kLower);
    directions_.set(derived, "derived", "region_imbalance_cv", imb.cv,
                    Better::kLower);
  }
  entry.set("derived", std::move(derived));
  // Per-replica end-state digests (harness/digest.h) as hex strings, for
  // documenting a change that intends to move them. Never gated.
  JsonValue digests = JsonValue::array();
  for (std::uint64_t d : set.digests) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(d));
    digests.push_back(JsonValue{std::string(hex)});
  }
  entry.set("digests", std::move(digests));
  row->results.push_back(std::move(entry));
}

JsonValue BenchReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kBenchSchema);
  doc.set("bench", bench_);
  doc.set("replicas", replicas_);
  JsonValue sections = JsonValue::array();
  for (const Section& section : sections_) {
    JsonValue s = JsonValue::object();
    s.set("title", section.title);
    s.set("metric", section.metric);
    JsonValue rows = JsonValue::array();
    for (const Row& row : section.rows) {
      JsonValue r = JsonValue::object();
      r.set("label", row.label);
      JsonValue results = JsonValue::array();
      for (const JsonValue& result : row.results) results.push_back(result);
      r.set("results", std::move(results));
      rows.push_back(std::move(r));
    }
    s.set("rows", std::move(rows));
    sections.push_back(std::move(s));
  }
  doc.set("sections", std::move(sections));
  doc.set("directions", directions_.json());
  return doc;
}

bool BenchReport::write(const std::string& path, std::string* error) const {
  return write_json_file(to_json(), path, error);
}

}  // namespace hlsrg
