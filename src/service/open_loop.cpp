#include "service/open_loop.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hlsrg {

OpenLoopGenerator::OpenLoopGenerator(Simulator& sim, QueryAdmission& admission,
                                     const ServiceTierConfig& cfg,
                                     std::size_t vehicles,
                                     int hotspot_targets)
    : sim_(&sim),
      admission_(&admission),
      cfg_(cfg),
      vehicles_(vehicles),
      hot_set_size_(static_cast<std::size_t>(std::max<std::int64_t>(
          1, std::min<std::int64_t>(
                 hotspot_targets, static_cast<std::int64_t>(vehicles) - 1)))) {
  HLSRG_CHECK(vehicles_ >= 2);
}

double OpenLoopGenerator::rate_at(SimTime t) const {
  const double dt = (t - begin_).sec();
  return std::max(0.0, cfg_.open_loop_rate_per_sec +
                           cfg_.open_loop_ramp_per_sec2 * dt);
}

void OpenLoopGenerator::start(SimTime begin, SimTime end) {
  if (cfg_.open_loop_rate_per_sec <= 0.0 &&
      cfg_.open_loop_ramp_per_sec2 <= 0.0) {
    return;
  }
  begin_ = begin;
  end_ = end;
  // The ramp is linear, so the rate's maximum over [begin, end) sits at an
  // endpoint; that is the thinning envelope.
  peak_rate_ = std::max(rate_at(begin), rate_at(end));
  if (peak_rate_ <= 0.0) return;
  schedule_next(begin);
}

void OpenLoopGenerator::schedule_next(SimTime from) {
  // Thinning (Lewis & Shedler): candidate arrivals at the constant envelope
  // rate, each accepted with probability rate(t)/peak. Exact for any rate
  // function bounded by the envelope, and O(1) state.
  Rng& rng = sim_->open_loop_rng();
  SimTime t = from;
  while (true) {
    const double u = std::max(rng.uniform(), 1e-12);
    t = t + SimTime::from_sec(-std::log(u) / peak_rate_);
    if (t >= end_) return;
    if (rng.uniform() * peak_rate_ <= rate_at(t)) break;
  }
  sim_->schedule_at(t, [this] { fire(); });
}

void OpenLoopGenerator::fire() {
  Rng& rng = sim_->open_loop_rng();
  const auto src = VehicleId{rng.uniform_u64(vehicles_)};
  const bool hot = rng.chance(cfg_.hotspot_fraction);
  const std::size_t pool = hot ? hot_set_size_ : vehicles_;
  auto dst = VehicleId{rng.uniform_u64(pool)};
  // A self-draw steps to the next vehicle of the set it came from, so a hot
  // draw stays hot; a hot set of one has no other member, so it steps out.
  if (dst == src) {
    dst = VehicleId{(dst.value() + 1) % (pool >= 2 ? pool : vehicles_)};
  }
  ++generated_;
  admission_->submit(src, dst);
  schedule_next(sim_->now());
}

}  // namespace hlsrg
