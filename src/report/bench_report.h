// BenchReport: accumulates a bench binary's measurements into the
// BENCH_<name>.json document. One report per binary; one section per table
// the bench prints; one row per sweep point; one result per protocol (or
// variant) measured at that point.
//
// Document shape (see docs/PROTOCOL.md for the field-by-field schema):
//   {
//     "schema": "hlsrg-bench/v1",
//     "bench": "fig32_update_overhead",
//     "replicas": 3,
//     "sections": [
//       { "title": ..., "metric": ...,
//         "rows": [
//           { "label": "500m/31veh",
//             "results": [
//               { "protocol": "HLSRG", "config": {...}, "metrics": {...},
//                 "latency": {...}, "engine": {...},
//                 "observability": {...},
//                 "replica_engine": [ {...}, ... ], "derived": {...},
//                 "digests": [ "<16 hex digits>", ... ] },
//               ... ] },
//           ... ] },
//       ... ],
//     "directions": { "metrics": {...}, "latency": {...}, ... }
//   }
#pragma once

#include <string>
#include <vector>

#include "harness/runner.h"
#include "report/run_report.h"

namespace hlsrg {

class BenchReport {
 public:
  BenchReport(std::string bench_name, int replicas);

  // Starts a new section; results are added to the most recent section.
  void begin_section(const std::string& title, const std::string& metric);

  // Records one measured protocol/variant at one sweep point. `label` keys
  // the row within the current section (re-using a label appends to the same
  // row — how comparison benches put HLSRG and RLSMP side by side).
  void add_result(const std::string& label, const std::string& protocol,
                  const ScenarioConfig& cfg, const ReplicaSet& set);

  [[nodiscard]] JsonValue to_json() const;
  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }

  // Writes the document to `path`; false + *error on failure.
  bool write(const std::string& path, std::string* error = nullptr) const;

 private:
  struct Row {
    std::string label;
    std::vector<JsonValue> results;  // one written result per protocol
  };
  struct Section {
    std::string title;
    std::string metric;
    std::vector<Row> rows;
  };

  std::string bench_;
  int replicas_;
  std::vector<Section> sections_;
  Directions directions_;
};

}  // namespace hlsrg
