#include "mobility/mobility_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hlsrg {

namespace {
constexpr double kmh_to_mps(double kmh) { return kmh / 3.6; }
}  // namespace

MobilityModel::MobilityModel(Simulator& sim, const RoadNetwork& net,
                             MobilityConfig cfg)
    : sim_(&sim),
      net_(&net),
      cfg_(cfg),
      lights_(cfg.lights),
      policy_(net, cfg.turn) {
  HLSRG_CHECK(cfg.tick_sec > 0.0);
  HLSRG_CHECK(cfg.min_speed_kmh > 0.0 &&
              cfg.min_speed_kmh <= cfg.max_speed_kmh);
  if (cfg.churn.enabled) {
    HLSRG_CHECK(cfg.churn.park_rate_per_sec >= 0.0);
    HLSRG_CHECK(cfg.churn.min_dwell_sec >= 0.0 &&
                cfg.churn.dwell_mean_sec > cfg.churn.min_dwell_sec);
  }
}

VehicleId MobilityModel::add_vehicle(SegmentId seg, double offset,
                                     double speed_mps) {
  HLSRG_CHECK(!started_);
  HLSRG_CHECK(seg.valid() && seg.index() < net_->segment_count());
  HLSRG_CHECK(offset >= 0.0 && offset < net_->segment(seg).length);
  HLSRG_CHECK(speed_mps >= 0.0);
  states_.push_back(VehicleState{seg, offset, speed_mps, false});
  poses_.push_back(net_->point_on(seg, offset));
  depart_at_sec_.push_back(-1.0);
  return VehicleId{states_.size() - 1};
}

void MobilityModel::place_random_vehicles(int n) {
  Rng& rng = sim_->mobility_rng();
  // Cumulative weights over directed segments.
  std::vector<double> cum;
  cum.reserve(net_->segment_count());
  double total = 0.0;
  for (std::size_t i = 0; i < net_->segment_count(); ++i) {
    const SegmentId sid{i};
    const double w = net_->segment(sid).length *
                     (net_->is_artery(sid) ? cfg_.artery_placement_weight : 1.0);
    total += w;
    cum.push_back(total);
  }
  HLSRG_CHECK(total > 0.0);
  for (int k = 0; k < n; ++k) {
    const double pick = rng.uniform(0.0, total);
    const std::size_t idx = static_cast<std::size_t>(
        std::lower_bound(cum.begin(), cum.end(), pick) - cum.begin());
    const SegmentId sid{std::min(idx, net_->segment_count() - 1)};
    const double len = net_->segment(sid).length;
    const double offset = rng.uniform(0.0, len * 0.999);
    const double speed =
        rng.chance(cfg_.parked_fraction)
            ? 0.0
            : kmh_to_mps(rng.uniform(cfg_.min_speed_kmh, cfg_.max_speed_kmh));
    add_vehicle(sid, offset, speed);
  }
}

void MobilityModel::start() {
  HLSRG_CHECK(!started_);
  started_ = true;
  sim_->schedule_after(SimTime::from_sec(cfg_.tick_sec), [this] { tick(); });
}

void MobilityModel::add_listener(MovementListener* listener) {
  HLSRG_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

Vec2 MobilityModel::heading(VehicleId v) const {
  return net_->segment(states_[v.index()].seg).unit_dir;
}

RoadId MobilityModel::current_road(VehicleId v) const {
  return net_->segment(states_[v.index()].seg).road;
}

bool MobilityModel::force_depart(VehicleId v) {
  VehicleState& s = states_[v.index()];
  if (s.speed > 0.0) return false;
  depart_vehicle(v, /*abrupt=*/true);
  return true;
}

double MobilityModel::draw_dwell_sec() {
  // Shifted exponential off the mobility stream; inverse-CDF so one uniform
  // per draw. uniform() < 1 so the log argument stays positive.
  const double mean = cfg_.churn.dwell_mean_sec - cfg_.churn.min_dwell_sec;
  return cfg_.churn.min_dwell_sec -
         mean * std::log(1.0 - sim_->mobility_rng().uniform());
}

void MobilityModel::depart_vehicle(VehicleId v, bool abrupt) {
  VehicleState& s = states_[v.index()];
  // Listeners see the departure while the vehicle still sits at its parked
  // pose (role hosts hand their tables off from that position).
  for (MovementListener* l : listeners_) l->on_departed(v, abrupt);
  s.speed = kmh_to_mps(
      sim_->mobility_rng().uniform(cfg_.min_speed_kmh, cfg_.max_speed_kmh));
  s.waiting = false;
  depart_at_sec_[v.index()] = -1.0;
  ++depart_events_;
}

void MobilityModel::churn_tick() {
  Rng& rng = sim_->mobility_rng();
  const double now = sim_->now().sec();
  const double park_p =
      std::min(1.0, cfg_.churn.park_rate_per_sec * cfg_.tick_sec);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const VehicleId v{i};
    VehicleState& s = states_[i];
    if (s.speed > 0.0) {
      if (park_p > 0.0 && rng.chance(park_p)) {
        s.speed = 0.0;
        s.waiting = false;
        depart_at_sec_[i] = now + draw_dwell_sec();
        ++park_events_;
        for (MovementListener* l : listeners_) l->on_parked(v);
      }
    } else if (depart_at_sec_[i] < 0.0) {
      // Init-parked vehicle meeting the lifecycle for the first time: give
      // it a dwell clock so the initial parked population churns too.
      depart_at_sec_[i] = now + draw_dwell_sec();
    } else if (now >= depart_at_sec_[i]) {
      depart_vehicle(v, /*abrupt=*/false);
    }
  }
}

void MobilityModel::tick() {
  if (cfg_.churn.enabled) churn_tick();
  // Phase 1: advance every moving vehicle, recording its passes and its
  // move. A parked vehicle neither moves nor draws, so it is skipped whole;
  // a moving one costs one point_on, against the pose kept from last tick.
  events_.clear();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const VehicleState& s = states_[i];
    if (s.speed <= 0.0) continue;
    const VehicleId v{i};
    advance_vehicle(v, cfg_.tick_sec);
    const Vec2 after = net_->point_on(s.seg, s.offset);
    Vec2& pose = poses_[i];
    if (pose != after) {
      events_.push_back({v, IntersectionId{}, SegmentId{}, SegmentId{}, pose,
                         after, net_->segment(s.seg).unit_dir * s.speed});
    }
    pose = after;
  }
  // Phase 2: hand the tick to each listener. The world's pose bridge is
  // registered first, so every pose is committed before a protocol reacts.
  for (MovementListener* l : listeners_) l->on_tick_events(events_);
  for (MovementListener* l : listeners_) l->on_tick();
  sim_->schedule_after(SimTime::from_sec(cfg_.tick_sec), [this] { tick(); });
}

void MobilityModel::advance_vehicle(VehicleId v, double dt) {
  VehicleState& s = states_[v.index()];
  if (s.speed <= 0.0) return;  // parked
  double budget = s.speed * dt;
  // A tick can in principle span several short segments; loop until the
  // distance budget is spent or the vehicle is parked at a red light.
  while (budget > 0.0) {
    const Segment& seg = net_->segment(s.seg);
    if (!s.waiting) {
      const double remaining = seg.length - s.offset;
      if (budget < remaining) {
        s.offset += budget;
        return;
      }
      budget -= remaining;
      s.offset = seg.length;
      s.waiting = true;  // provisionally: must clear the light to cross
    }
    // At the stop line of seg.to. Check the light for our approach.
    const Orientation approach = net_->road(seg.road).orient;
    if (!lights_.can_pass(seg.to, approach, sim_->now())) {
      return;  // stay waiting; budget forfeited while stopped
    }
    // Green: cross the intersection.
    const SegmentId out = policy_.choose_exit(s.seg, sim_->mobility_rng());
    events_.push_back({v, seg.to, s.seg, out, Vec2{}, Vec2{}, Vec2{}});
    s.seg = out;
    s.offset = 0.0;
    s.waiting = false;
  }
}

}  // namespace hlsrg
