// Per-L3-region telemetry: load counters, a cross-region wired traffic
// matrix, and sampled time series.
//
// One RegionTelemetry per World, always on (feeding it is counter
// increments only — no RNG, no events, no simulation state), so like
// MetricsRegistry it is digest-neutral by construction. Counters are
// recorded at the same decision sites as the PacketLedger, which makes the
// per-region sums close exactly against the global ledger and RunMetrics —
// the conservation laws pinned in tests/obs_test.cpp:
//
//   sum(radio_broadcasts)            == RunMetrics::radio_broadcasts
//   sum(radio_unicasts)              == RunMetrics::radio_unicasts
//   sum(radio_dropped)               == RunMetrics::radio_drops
//   sum(radio_delivered + wired_in)  == channel.total_delivered()
//   sum(radio_dropped + wired_dropped) == channel.total_dropped()
//   sum(updates)                     == update_packets_originated
//   sum(cache_hits)                  == RunMetrics::cache_hits
//   sum(queries_shed)                == queries_shed + retries_shed
//   sum(role_migrations)             == role_elections + role_fills
//   sum(handoff_records)             == handoff_records_delivered
//   matrix row/col sums              == wired_out / wired_in per region
//   matrix hop total                 == RunMetrics::wired_messages
//
// Region attribution: transmissions belong to the sender's region,
// receptions/losses to the receiver's, wired traffic to the endpoint
// regions (the matrix is directed: source row, destination column).
//
// The position→region mapper is GridHierarchy::coord_at(p, kL3) over the
// same L1 boundary lines: one AxisIndex lookup per axis (the project's one
// position→cell mapper, O(1)), then /4. The telemetry builds its own
// indexes from the edges it is given, so the hot instrumentation paths
// never touch the hierarchy or take an indirect call.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.h"
#include "report/json.h"
#include "util/axis_index.h"
#include "util/check.h"

namespace hlsrg {

class PhaseProfiler;

// Per-region counter block. All counters are recorded at channel/protocol
// decision time (see the header comment for the exact laws).
struct RegionCounters {
  std::uint64_t radio_broadcasts = 0;  // broadcast transmissions from here
  std::uint64_t radio_unicasts = 0;    // unicast attempts from here
  std::uint64_t radio_delivered = 0;   // receptions scheduled for nodes here
  std::uint64_t radio_dropped = 0;     // channel losses at receivers here
  std::uint64_t wired_out = 0;         // wired packets sent from here
  std::uint64_t wired_in = 0;          // wired packets delivered here
  std::uint64_t wired_dropped = 0;     // wired sends from here with no path
  std::uint64_t updates = 0;           // update packets originated here
  std::uint64_t queries_served = 0;    // location-table lookup hits here
  std::uint64_t cache_hits = 0;        // service-tier cache answers here
  std::uint64_t queries_shed = 0;      // admissions refused for sources here
  std::uint64_t role_migrations = 0;   // role hosts elected/filled here
  std::uint64_t handoff_records = 0;   // handoff records delivered here

  // Deliveries a region's nodes had to handle — the load measure behind the
  // imbalance summary (radio receptions + wired arrivals).
  [[nodiscard]] std::uint64_t load() const {
    return radio_delivered + wired_in;
  }

  void merge(const RegionCounters& other);
};

class RegionTelemetry {
 public:
  // Unconfigured shell (0 regions); merge() adopts the first configured
  // source. The harness aggregate starts in this state.
  RegionTelemetry() = default;

  // `x_edges`/`y_edges` are the L1 boundary-line coordinates (map edges
  // included, ascending) from the road-adapted partition.
  RegionTelemetry(std::vector<double> x_edges, std::vector<double> y_edges);

  [[nodiscard]] bool configured() const { return cols_ > 0; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int region_count() const { return cols_ * rows_; }
  [[nodiscard]] int replicas() const { return replicas_; }

  // L3 region containing p; the same lookup as
  // GridHierarchy::coord_at(p, GridLevel::kL3) (clamped half-open cells).
  [[nodiscard]] int region_of(Vec2 p) const {
    return y_axis_.index(p.y) / 4 * cols_ + x_axis_.index(p.x) / 4;
  }

  [[nodiscard]] RegionCounters& at(int region) {
    return counters_[static_cast<std::size_t>(region)];
  }
  [[nodiscard]] const RegionCounters& at(int region) const {
    return counters_[static_cast<std::size_t>(region)];
  }

  // Wired delivery from region `from` to region `to`: matrix cell plus the
  // endpoint wired_out/wired_in counters.
  void add_wired_delivered(int from, int to, int hops, std::uint64_t bytes) {
    const std::size_t cell = static_cast<std::size_t>(from) *
                                 static_cast<std::size_t>(cols_ * rows_) +
                             static_cast<std::size_t>(to);
    ++matrix_packets_[cell];
    matrix_hops_[cell] += static_cast<std::uint64_t>(hops);
    matrix_bytes_[cell] += bytes;
    ++at(from).wired_out;
    ++at(to).wired_in;
  }
  void add_wired_dropped(int from) { ++at(from).wired_dropped; }

  [[nodiscard]] std::uint64_t matrix_packets(int from, int to) const {
    return matrix_packets_[static_cast<std::size_t>(from) *
                               static_cast<std::size_t>(cols_ * rows_) +
                           static_cast<std::size_t>(to)];
  }
  [[nodiscard]] std::uint64_t matrix_hops(int from, int to) const {
    return matrix_hops_[static_cast<std::size_t>(from) *
                            static_cast<std::size_t>(cols_ * rows_) +
                        static_cast<std::size_t>(to)];
  }
  [[nodiscard]] std::uint64_t matrix_bytes(int from, int to) const {
    return matrix_bytes_[static_cast<std::size_t>(from) *
                             static_cast<std::size_t>(cols_ * rows_) +
                         static_cast<std::size_t>(to)];
  }

  // Appends one sample tick (the World's periodic sampler). The three
  // vectors must be region_count() long.
  void push_sample(double t_sec, std::vector<std::uint64_t> vehicles,
                   std::vector<std::uint64_t> table_records,
                   std::vector<std::uint64_t> queue_depth);

  [[nodiscard]] std::size_t sample_count() const { return times_sec_.size(); }

  // Load-imbalance summary over RegionCounters::load().
  struct Imbalance {
    double max_over_mean = 0.0;  // hottest region vs the mean (1 = uniform)
    double cv = 0.0;             // coefficient of variation (stddev / mean)
    std::uint64_t total_load = 0;
  };
  [[nodiscard]] Imbalance load_imbalance() const;

  // Replica aggregation: counters and matrix cells add element-wise, the
  // sampled series keep the first replica (mirroring MetricsRegistry), and
  // an unconfigured shell adopts the source's geometry.
  void merge(const RegionTelemetry& other);

  // Region/matrix/series document (no schema key; obs_document() wraps it).
  [[nodiscard]] JsonValue to_json() const;

 private:
  // L1 boundary lines per axis; empty while unconfigured.
  AxisIndex x_axis_;
  AxisIndex y_axis_;
  int cols_ = 0;
  int rows_ = 0;
  int replicas_ = 1;
  std::vector<RegionCounters> counters_;
  // Directed region×region wired traffic, flattened row-major (from, to).
  std::vector<std::uint64_t> matrix_packets_;
  std::vector<std::uint64_t> matrix_hops_;
  std::vector<std::uint64_t> matrix_bytes_;
  // Sampled series: times_sec_[i] pairs with row i of each per-region table.
  std::vector<double> times_sec_;
  std::vector<std::vector<std::uint64_t>> vehicles_;
  std::vector<std::vector<std::uint64_t>> table_records_;
  std::vector<std::vector<std::uint64_t>> queue_depth_;
};

// Assembles the `--obs-out` document: {"schema":"hlsrg-obs/v1",
// "telemetry":{…},"profile":{…}|null}. `profiler` may be null (profiling
// off) or empty.
[[nodiscard]] JsonValue obs_document(const RegionTelemetry& telemetry,
                                     const PhaseProfiler* profiler);

}  // namespace hlsrg
