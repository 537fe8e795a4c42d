#include "obs/region_telemetry.h"

#include <cmath>
#include <utility>

#include "obs/profiler.h"

namespace hlsrg {

void RegionCounters::merge(const RegionCounters& other) {
  radio_broadcasts += other.radio_broadcasts;
  radio_unicasts += other.radio_unicasts;
  radio_delivered += other.radio_delivered;
  radio_dropped += other.radio_dropped;
  wired_out += other.wired_out;
  wired_in += other.wired_in;
  wired_dropped += other.wired_dropped;
  updates += other.updates;
  queries_served += other.queries_served;
  cache_hits += other.cache_hits;
  queries_shed += other.queries_shed;
  role_migrations += other.role_migrations;
  handoff_records += other.handoff_records;
}

RegionTelemetry::RegionTelemetry(std::vector<double> x_edges,
                                 std::vector<double> y_edges)
    : x_axis_(std::move(x_edges)), y_axis_(std::move(y_edges)) {
  // L3 shape: GridHierarchy::shrink — four L1 cells per axis, edge groups
  // truncated with ceil division.
  cols_ = (x_axis_.intervals() + 3) / 4;
  rows_ = (y_axis_.intervals() + 3) / 4;
  const std::size_t n = static_cast<std::size_t>(cols_) * rows_;
  counters_.resize(n);
  matrix_packets_.resize(n * n, 0);
  matrix_hops_.resize(n * n, 0);
  matrix_bytes_.resize(n * n, 0);
}

void RegionTelemetry::push_sample(double t_sec,
                                  std::vector<std::uint64_t> vehicles,
                                  std::vector<std::uint64_t> table_records,
                                  std::vector<std::uint64_t> queue_depth) {
  HLSRG_CHECK(vehicles.size() == counters_.size() &&
              table_records.size() == counters_.size() &&
              queue_depth.size() == counters_.size());
  times_sec_.push_back(t_sec);
  vehicles_.push_back(std::move(vehicles));
  table_records_.push_back(std::move(table_records));
  queue_depth_.push_back(std::move(queue_depth));
}

RegionTelemetry::Imbalance RegionTelemetry::load_imbalance() const {
  Imbalance im;
  if (counters_.empty()) return im;
  std::uint64_t max_load = 0;
  for (const RegionCounters& c : counters_) {
    im.total_load += c.load();
    if (c.load() > max_load) max_load = c.load();
  }
  if (im.total_load == 0) return im;
  const double mean = static_cast<double>(im.total_load) /
                      static_cast<double>(counters_.size());
  im.max_over_mean = static_cast<double>(max_load) / mean;
  double var = 0.0;
  for (const RegionCounters& c : counters_) {
    const double d = static_cast<double>(c.load()) - mean;
    var += d * d;
  }
  var /= static_cast<double>(counters_.size());
  im.cv = std::sqrt(var) / mean;
  return im;
}

void RegionTelemetry::merge(const RegionTelemetry& other) {
  if (!other.configured()) return;
  if (!configured()) {
    *this = other;
    return;
  }
  HLSRG_CHECK(cols_ == other.cols_ && rows_ == other.rows_);
  replicas_ += other.replicas_;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i].merge(other.counters_[i]);
  }
  for (std::size_t i = 0; i < matrix_packets_.size(); ++i) {
    matrix_packets_[i] += other.matrix_packets_[i];
    matrix_hops_[i] += other.matrix_hops_[i];
    matrix_bytes_[i] += other.matrix_bytes_[i];
  }
  // Series keep the first replica (this object), like MetricsRegistry.
}

namespace {

JsonValue u64_row(const std::vector<std::uint64_t>& row) {
  JsonValue v = JsonValue::array();
  for (std::uint64_t x : row) v.push_back(x);
  return v;
}

JsonValue u64_matrix(const std::vector<std::uint64_t>& flat, int n) {
  JsonValue rows = JsonValue::array();
  for (int r = 0; r < n; ++r) {
    JsonValue row = JsonValue::array();
    for (int c = 0; c < n; ++c) {
      row.push_back(flat[static_cast<std::size_t>(r) *
                             static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(c)]);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

JsonValue sample_table(const std::vector<std::vector<std::uint64_t>>& rows) {
  JsonValue v = JsonValue::array();
  for (const auto& row : rows) v.push_back(u64_row(row));
  return v;
}

}  // namespace

JsonValue RegionTelemetry::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("l3_cols", cols_);
  doc.set("l3_rows", rows_);
  doc.set("replicas", replicas_);

  JsonValue edges_x = JsonValue::array();
  for (double e : x_axis_.edges()) edges_x.push_back(e);
  doc.set("x_edges", std::move(edges_x));
  JsonValue edges_y = JsonValue::array();
  for (double e : y_axis_.edges()) edges_y.push_back(e);
  doc.set("y_edges", std::move(edges_y));

  JsonValue regions = JsonValue::array();
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      const RegionCounters& cnt = at(r * cols_ + c);
      JsonValue region = JsonValue::object();
      region.set("id", r * cols_ + c);
      region.set("col", c);
      region.set("row", r);
      region.set("radio_broadcasts", cnt.radio_broadcasts);
      region.set("radio_unicasts", cnt.radio_unicasts);
      region.set("radio_delivered", cnt.radio_delivered);
      region.set("radio_dropped", cnt.radio_dropped);
      region.set("wired_out", cnt.wired_out);
      region.set("wired_in", cnt.wired_in);
      region.set("wired_dropped", cnt.wired_dropped);
      region.set("updates", cnt.updates);
      region.set("queries_served", cnt.queries_served);
      region.set("cache_hits", cnt.cache_hits);
      region.set("queries_shed", cnt.queries_shed);
      region.set("role_migrations", cnt.role_migrations);
      region.set("handoff_records", cnt.handoff_records);
      region.set("load", cnt.load());
      regions.push_back(std::move(region));
    }
  }
  doc.set("regions", std::move(regions));

  const int n = region_count();
  JsonValue matrix = JsonValue::object();
  matrix.set("packets", u64_matrix(matrix_packets_, n));
  matrix.set("hops", u64_matrix(matrix_hops_, n));
  matrix.set("bytes", u64_matrix(matrix_bytes_, n));
  doc.set("matrix", std::move(matrix));

  JsonValue series = JsonValue::object();
  JsonValue times = JsonValue::array();
  for (double t : times_sec_) times.push_back(t);
  series.set("times_sec", std::move(times));
  series.set("vehicles", sample_table(vehicles_));
  series.set("table_records", sample_table(table_records_));
  series.set("queue_depth", sample_table(queue_depth_));
  doc.set("series", std::move(series));

  const Imbalance im = load_imbalance();
  JsonValue imbalance = JsonValue::object();
  imbalance.set("load_max_over_mean", im.max_over_mean);
  imbalance.set("load_cv", im.cv);
  imbalance.set("total_load", im.total_load);
  doc.set("imbalance", std::move(imbalance));
  return doc;
}

JsonValue obs_document(const RegionTelemetry& telemetry,
                       const PhaseProfiler* profiler) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "hlsrg-obs/v1");
  doc.set("telemetry", telemetry.to_json());
  doc.set("profile", profiler != nullptr && !profiler->empty()
                         ? profiler->to_json()
                         : JsonValue());
  return doc;
}

}  // namespace hlsrg
