// Vehicle mobility on the road graph (VanetMobiSim substitute, part 3).
//
// Vehicles advance along directed segments at a constant per-vehicle speed,
// stop at red lights, and pick exits with TurnPolicy. Movement happens in
// fixed ticks (kMobilityTickSec, 500 ms — at the 60 km/h cap a vehicle moves
// 8.3 m per tick, far below segment lengths, so intersection handling per
// tick is exact enough for protocol purposes). Protocols observe movement
// through MovementListener: discrete intersection passes (HLSRG's update
// rules key off these) and per-tick moves (RLSMP detects cell crossings from
// these), handed over as one batch per tick.
//
// Deliberate abstraction: no car-following — stopped vehicles co-locate at
// the stop line. The protocols under study read positions and radio
// connectivity, not headways, so queue geometry does not affect the metrics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mobility/traffic_light.h"
#include "mobility/turn_policy.h"
#include "roadnet/road_network.h"
#include "sim/simulator.h"
#include "util/tagged_id.h"

namespace hlsrg {

// Parking lifecycle ("Smarter Cities with Parked Cars as Roadside Units"):
// when enabled, parking stops being a one-shot init flag — moving vehicles
// park with a per-tick hazard and parked vehicles depart after a dwell time
// drawn from a shifted exponential. All draws come from the mobility RNG
// stream and happen only when `enabled`, so zero-churn runs consume exactly
// the same draws (and stay byte-identical) as before this knob existed.
struct ParkingChurnConfig {
  bool enabled = false;
  // Hazard rate for a moving vehicle to pull over, per second (converted to
  // a per-tick Bernoulli probability rate * kMobilityTickSec, clamped
  // to 1).
  double park_rate_per_sec = 0.0;
  // Dwell = min_dwell_sec + Exp(mean = dwell_mean_sec - min_dwell_sec).
  double dwell_mean_sec = 300.0;
  double min_dwell_sec = 30.0;
};

inline constexpr double kMobilityTickSec = 0.5;

struct MobilityConfig {
  // Paper: "speed between 0 to 60 km/hr". Moving vehicles sample in
  // [min, max]; the 0 km/h end of the paper's range is modelled explicitly
  // by `parked_fraction` below.
  double min_speed_kmh = 5.0;
  double max_speed_kmh = 60.0;
  // Fraction of vehicles that start parked (speed 0). Parked vehicles never
  // move but keep their radios on — they relay packets and can serve as
  // grid-center location servers. Without churn they stay parked for the
  // whole run; with churn they depart once their drawn dwell expires.
  double parked_fraction = 0.0;
  // Relative placement weight of artery road-metres vs normal road-metres;
  // 10 reproduces the paper's measured 10:1 artery:normal vehicle density.
  double artery_placement_weight = 10.0;
  ParkingChurnConfig churn;
  TrafficLightConfig lights;
  TurnPolicyConfig turn;
};

struct VehicleState {
  SegmentId seg;       // segment currently being driven (from -> to)
  double offset = 0.0; // metres from seg.from
  double speed = 0.0;  // metres/second (constant per vehicle)
  bool waiting = false;  // stopped at seg.to's red light
};

// One movement record of a tick, written by the advance phase. A pass
// carries a valid `node` and its two segments; a move carries an invalid
// `node`, the vehicle's start- and end-of-tick poses, and its end-of-tick
// velocity (segment heading x speed), so no listener recomputes them.
struct TickEvent {
  VehicleId v;
  IntersectionId node;
  SegmentId in_seg;
  SegmentId out_seg;
  Vec2 before;
  Vec2 after;
  Vec2 velocity;
  [[nodiscard]] bool is_pass() const { return node.valid(); }
};

// Observer interface for protocol agents. A tick's events reach listeners
// after the whole tick has advanced: each listener, in registration order,
// gets the tick once through on_tick_events, then on_tick. Every pose a
// listener reads is the end-of-tick pose.
//
// on_tick_events is the one hook the tick calls. Its default forwards each
// event to on_intersection_pass / on_moved, so a listener that reacts to
// one event at a time (RLSMP, FLOOD, probes in tests and benches) overrides
// only those; the per-vehicle hot listeners (the world's pose bridge,
// HLSRG) override the batch hook and walk the span themselves.
class MovementListener {
 public:
  virtual ~MovementListener() = default;
  // The tick ending now: every pass and move, in vehicle-id order, a
  // vehicle's passes before its move. The span is valid for this call only.
  virtual void on_tick_events(std::span<const TickEvent> events) {
    for (const TickEvent& e : events) {
      if (e.is_pass()) {
        on_intersection_pass(e.v, e.node, e.in_seg, e.out_seg);
      } else {
        on_moved(e.v, e.before, e.after);
      }
    }
  }
  // Vehicle `v` passed through `node`, arriving on `in_seg` and departing on
  // `out_seg` during the tick ending now (after any red-light wait). The
  // vehicle has since driven on; `node` locates the crossing.
  virtual void on_intersection_pass(VehicleId v, IntersectionId node,
                                    SegmentId in_seg, SegmentId out_seg) {
    (void)v; (void)node; (void)in_seg; (void)out_seg;
  }
  // Vehicle `v` moved from `before` to `after` during the tick ending now.
  // Fired only when the position changed.
  virtual void on_moved(VehicleId v, Vec2 before, Vec2 after) {
    (void)v; (void)before; (void)after;
  }
  // Fired once per tick, after every listener has seen the tick's events.
  virtual void on_tick() {}
  // Vehicle `v` pulled over (speed -> 0) at its current position. Fired by
  // the parking-churn lifecycle only; init-parked vehicles never fire it.
  virtual void on_parked(VehicleId v) { (void)v; }
  // Parked vehicle `v` resumed driving. `abrupt` is true for fault-forced
  // departures (MobilityModel::force_depart) — no grace for handoff — and
  // false for natural dwell expiries.
  virtual void on_departed(VehicleId v, bool abrupt) { (void)v; (void)abrupt; }
};

class MobilityModel {
 public:
  MobilityModel(Simulator& sim, const RoadNetwork& net, MobilityConfig cfg);

  // Adds a vehicle at a specific pose. Speed in m/s; 0 parks the vehicle.
  VehicleId add_vehicle(SegmentId seg, double offset, double speed_mps);

  // Adds `n` vehicles at random poses: segment chosen with probability
  // proportional to length x class weight, offset uniform, speed uniform in
  // the configured band. Draws from the simulator's mobility stream.
  void place_random_vehicles(int n);

  // Schedules the first tick; call once after vehicles are placed.
  void start();

  void add_listener(MovementListener* listener);

  [[nodiscard]] std::size_t vehicle_count() const { return states_.size(); }
  [[nodiscard]] const VehicleState& state(VehicleId v) const {
    return states_[v.index()];
  }
  // End-of-tick pose: point_on(state(v).seg, state(v).offset), kept per
  // vehicle so a read is one array load.
  [[nodiscard]] Vec2 position(VehicleId v) const { return poses_[v.index()]; }
  // Unit heading of the vehicle's current segment.
  [[nodiscard]] Vec2 heading(VehicleId v) const;
  [[nodiscard]] RoadId current_road(VehicleId v) const;
  [[nodiscard]] bool parked(VehicleId v) const {
    return states_[v.index()].speed <= 0.0;
  }

  // Immediately puts a parked vehicle back in motion (abrupt departure; no
  // handoff grace). Used by the fault layer's burst-departure windows. The
  // new speed is drawn from the mobility stream. Returns false (no-op) if
  // the vehicle is not parked.
  bool force_depart(VehicleId v);

  // Lifecycle counters (tests and telemetry).
  [[nodiscard]] std::uint64_t park_events() const { return park_events_; }
  [[nodiscard]] std::uint64_t depart_events() const { return depart_events_; }

  [[nodiscard]] const RoadNetwork& network() const { return *net_; }
  [[nodiscard]] const TurnPolicy& turn_policy() const { return policy_; }
  [[nodiscard]] const TrafficLightPlan& lights() const { return lights_; }
  [[nodiscard]] const MobilityConfig& config() const { return cfg_; }

 private:
  void tick();
  void advance_vehicle(VehicleId v, double dt);
  void churn_tick();
  void depart_vehicle(VehicleId v, bool abrupt);
  [[nodiscard]] double draw_dwell_sec();

  Simulator* sim_;
  const RoadNetwork* net_;
  MobilityConfig cfg_;
  TrafficLightPlan lights_;
  TurnPolicy policy_;
  std::vector<VehicleState> states_;
  // poses_[i] == point_on(states_[i].seg, states_[i].offset), refreshed in
  // the advance phase for each moving vehicle.
  std::vector<Vec2> poses_;
  // Absolute sim-second each parked vehicle departs; < 0 = no dwell drawn
  // yet (moving, or parked before churn assigned one). Kept out of
  // VehicleState so the digest's per-vehicle mix is untouched.
  std::vector<double> depart_at_sec_;
  std::vector<MovementListener*> listeners_;
  // This tick's passes and moves, in vehicle-id order; reused across ticks.
  std::vector<TickEvent> events_;
  std::uint64_t park_events_ = 0;
  std::uint64_t depart_events_ = 0;
  bool started_ = false;
};

}  // namespace hlsrg
