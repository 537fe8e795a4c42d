#include "sim/counters.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace hlsrg {

namespace {

template <typename T>
void merge_value(MergeRule rule, T& into, T from) {
  into = rule == MergeRule::kMax ? std::max(into, from) : into + from;
}

}  // namespace

void LatencyStat::add(SimTime sample) {
  const std::int64_t us = sample.us();
  if (count_ == 0) {
    min_us_ = max_us_ = us;
  } else {
    min_us_ = std::min(min_us_, us);
    max_us_ = std::max(max_us_, us);
  }
  sum_us_ += us;
  ++count_;
  samples_us_.push_back(us);
  sorted_ = false;
}

double LatencyStat::percentile_ms(double q) const {
  if (samples_us_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_us_.begin(), samples_us_.end());
    sorted_ = true;
  }
  q = std::min(std::max(q, 0.0), 1.0);
  // Nearest-rank: ceil(q*n), 1-based.
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(samples_us_.size()))));
  return static_cast<double>(samples_us_[rank - 1]) * 1e-3;
}

double LatencyStat::mean_ms() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_us_) /
                           static_cast<double>(count_) * 1e-3;
}

double LatencyStat::min_ms() const {
  return count_ == 0 ? 0.0 : static_cast<double>(min_us_) * 1e-3;
}

double LatencyStat::max_ms() const {
  return count_ == 0 ? 0.0 : static_cast<double>(max_us_) * 1e-3;
}

void LatencyStat::merge(const LatencyStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_us_ = std::min(min_us_, other.min_us_);
  max_us_ = std::max(max_us_, other.max_us_);
  sum_us_ += other.sum_us_;
  count_ += other.count_;
  samples_us_.insert(samples_us_.end(), other.samples_us_.begin(),
                     other.samples_us_.end());
  sorted_ = false;
}

void EngineStats::merge(const EngineStats& other) {
  for_each_key([&](const EngineSpec& spec, auto key) {
    // Rates are member functions of the merged fields, not merged.
    if constexpr (std::is_member_object_pointer_v<decltype(key)>) {
      merge_value(spec.merge, this->*key, other.*key);
    }
  });
}

void RunMetrics::merge(const RunMetrics& other) {
  for_each_field(
      [&](const MetricSpec& spec, std::uint64_t RunMetrics::*field) {
        merge_value(spec.merge, this->*field, other.*field);
      });
  channel.merge(other.channel);
  query_latency.merge(other.query_latency);
}

}  // namespace hlsrg
