// Bucketed O(1) interval lookup over ascending edges: the one
// position→cell mapper behind GridHierarchy::l1_at and
// RegionTelemetry::region_of.
//
// index(v) is upper_bound(edges, v) - 1 clamped to [0, intervals() - 1]:
// intervals are half-open [edges[i], edges[i+1]), a value on an edge belongs
// to the interval on its greater side, and values outside [front, back)
// clamp to the end intervals. NaN maps to interval 0.
//
// A table of equal-width buckets spans [front, back]. A value's bucket is
// one subtract, one multiply and a clamp; the bucket stores a start interval
// and the lookup steps forward over the real edge coordinates, so the answer
// is exact whatever the rounding of the bucket arithmetic. The start is
// never above the answer: bucket() is monotone in v (subtract, multiply by a
// positive constant, clamp and truncation all are under IEEE rounding), so a
// value in bucket b lies at or above every edge whose own bucket is below b,
// and start_[b] counts exactly those edges.
//
// Buckets are as wide as the smallest gap, so a bucket holds about one edge,
// but there are at most kMaxBuckets of them: the partition puts the map-edge
// line after its last road, so one gap can be about a metre wide. The bucket
// count only affects speed.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hlsrg {

class AxisIndex {
 public:
  // Empty index (no intervals); index() must not be called on it.
  AxisIndex() = default;

  // `edges` should be finite and strictly ascending, at least two of them.
  // Other orders are not rejected here (the grid auditor reports unordered
  // boundary lines): index() still returns an interval in range, but not
  // necessarily upper_bound's.
  explicit AxisIndex(std::vector<double> edges) : edges_(std::move(edges)) {
    HLSRG_CHECK_MSG(edges_.size() >= 2, "axis needs at least one interval");
    const std::size_t n = edges_.size() - 1;
    const double span = edges_.back() - edges_.front();
    double min_gap = span;
    for (std::size_t i = 0; i < n; ++i) {
      const double gap = edges_[i + 1] - edges_[i];
      if (gap > 0.0 && gap < min_gap) min_gap = gap;
    }
    const bool ordered_span = span > 0.0 && std::isfinite(span);
    const double want = ordered_span ? std::ceil(span / min_gap) : 1.0;
    const std::size_t buckets =
        want < kMaxBuckets ? static_cast<std::size_t>(want) : kMaxBuckets;
    lo_ = edges_.front();
    scale_ = ordered_span ? static_cast<double>(buckets) / span : 0.0;
    top_ = static_cast<double>(buckets - 1);
    last_ = static_cast<int>(n) - 1;

    // start_[b] = number of interior edges (edges_[1..n-1]) whose bucket is
    // below b. Interior edges are ascending, so their buckets are too.
    start_.resize(buckets);
    std::size_t j = 1;
    for (std::size_t b = 0; b < buckets; ++b) {
      while (j < n && bucket(edges_[j]) < b) ++j;
      start_[b] = static_cast<std::int32_t>(j - 1);
    }
  }

  [[nodiscard]] int index(double v) const {
    int i = start_[bucket(v)];
    while (i < last_ && v >= edges_[static_cast<std::size_t>(i) + 1]) ++i;
    return i;
  }

  [[nodiscard]] int intervals() const { return last_ + 1; }
  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }

 private:
  static constexpr std::size_t kMaxBuckets = 512;

  [[nodiscard]] std::size_t bucket(double v) const {
    double t = (v - lo_) * scale_;
    // Clamp before the conversion: NaN fails the first test and lands in
    // bucket 0, and no infinite or out-of-range value reaches the cast.
    t = t >= 0.0 ? t : 0.0;
    t = t <= top_ ? t : top_;
    return static_cast<std::size_t>(t);
  }

  std::vector<double> edges_;
  std::vector<std::int32_t> start_;
  double lo_ = 0.0;
  double scale_ = 0.0;
  double top_ = 0.0;
  int last_ = -1;
};

}  // namespace hlsrg
