// Tests for mobility: traffic lights, turn policy, vehicle kinematics, and
// movement events.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "mobility/mobility_model.h"
#include "mobility/traffic_light.h"
#include "mobility/turn_policy.h"
#include "roadnet/map_builder.h"
#include "sim/simulator.h"

namespace hlsrg {
namespace {

// --- traffic lights ----------------------------------------------------------

TEST(TrafficLightTest, OppositeAxesAlternate) {
  TrafficLightPlan plan({.red_sec = 50.0, .enabled = true});
  const IntersectionId node{std::size_t{3}};
  int both_green = 0, both_red = 0;
  for (int s = 0; s < 200; ++s) {
    const SimTime t = SimTime::from_sec(s);
    const bool h = plan.can_pass(node, Orientation::kHorizontal, t);
    const bool v = plan.can_pass(node, Orientation::kVertical, t);
    both_green += (h && v) ? 1 : 0;
    both_red += (!h && !v) ? 1 : 0;
  }
  EXPECT_EQ(both_green, 0);
  EXPECT_EQ(both_red, 0);
}

TEST(TrafficLightTest, RedLastsConfiguredDuration) {
  TrafficLightPlan plan({.red_sec = 50.0, .enabled = true});
  const IntersectionId node{std::size_t{0}};
  // Count consecutive red seconds for the horizontal approach.
  int longest_red = 0, current = 0;
  for (int s = 0; s < 400; ++s) {
    if (!plan.can_pass(node, Orientation::kHorizontal, SimTime::from_sec(s))) {
      ++current;
      longest_red = std::max(longest_red, current);
    } else {
      current = 0;
    }
  }
  EXPECT_GE(longest_red, 49);
  EXPECT_LE(longest_red, 51);
}

TEST(TrafficLightTest, NextGreenReturnsGreenInstant) {
  TrafficLightPlan plan({.red_sec = 50.0, .enabled = true});
  const IntersectionId node{std::size_t{7}};
  for (int s = 0; s < 150; s += 7) {
    const SimTime t = SimTime::from_sec(s);
    const SimTime g = plan.next_green(node, Orientation::kVertical, t);
    EXPECT_GE(g, t);
    EXPECT_TRUE(plan.can_pass(node, Orientation::kVertical, g));
    // Green must not be reachable strictly earlier (probe 1s before).
    if (g > t + SimTime::from_sec(1)) {
      EXPECT_FALSE(plan.can_pass(node, Orientation::kVertical,
                                 g - SimTime::from_sec(1)));
    }
  }
}

TEST(TrafficLightTest, DisabledAlwaysPasses) {
  TrafficLightPlan plan({.red_sec = 50.0, .enabled = false});
  for (int s = 0; s < 100; ++s) {
    EXPECT_TRUE(plan.can_pass(IntersectionId{std::size_t{1}},
                              Orientation::kVertical, SimTime::from_sec(s)));
  }
}

TEST(TrafficLightTest, OtherOrientationAlwaysPasses) {
  TrafficLightPlan plan({.red_sec = 50.0, .enabled = true});
  for (int s = 0; s < 100; ++s) {
    EXPECT_TRUE(plan.can_pass(IntersectionId{std::size_t{1}},
                              Orientation::kOther, SimTime::from_sec(s)));
  }
}

TEST(TrafficLightTest, PhasesDifferAcrossIntersections) {
  TrafficLightPlan plan({.red_sec = 50.0, .enabled = true});
  const SimTime t = SimTime::from_sec(10);
  int greens = 0;
  const int n = 50;
  for (std::size_t i = 0; i < n; ++i) {
    greens += plan.can_pass(IntersectionId{i}, Orientation::kHorizontal, t);
  }
  // Staggered offsets: roughly half the intersections are green, never all.
  EXPECT_GT(greens, n / 5);
  EXPECT_LT(greens, n * 4 / 5);
}

// --- turn policy ------------------------------------------------------------

class TurnPolicyTest : public ::testing::Test {
 protected:
  TurnPolicyTest() : net_(build_manhattan_map({})) {}
  RoadNetwork net_;
};

TEST_F(TurnPolicyTest, NeverUTurnsWhenAlternativesExist) {
  TurnPolicy policy(net_, {});
  Rng rng(1);
  // Pick a segment arriving at an interior intersection.
  for (std::size_t i = 0; i < net_.segment_count(); ++i) {
    const SegmentId sid{i};
    const Segment& s = net_.segment(sid);
    if (net_.intersection(s.to).out.size() < 2) continue;
    for (int k = 0; k < 20; ++k) {
      EXPECT_NE(policy.choose_exit(sid, rng), s.reverse);
    }
    break;
  }
}

TEST_F(TurnPolicyTest, DeadEndForcesUTurn) {
  RoadNetwork net;
  const auto a = net.add_intersection({0, 0});
  const auto b = net.add_intersection({100, 0});
  const RoadId r = net.add_road(RoadClass::kNormal, Orientation::kHorizontal, 0);
  const SegmentId ab = net.add_edge(r, a, b);
  net.finalize();
  TurnPolicy policy(net, {});
  Rng rng(1);
  EXPECT_EQ(policy.choose_exit(ab, rng), net.segment(ab).reverse);
}

TEST_F(TurnPolicyTest, IsTurnDetectsHeadingChange) {
  TurnPolicy policy(net_, {});
  // Find an intersection with a straight continuation and a crossing exit.
  for (std::size_t i = 0; i < net_.segment_count(); ++i) {
    const SegmentId in{i};
    const Segment& s = net_.segment(in);
    SegmentId straight, crossing;
    for (SegmentId out : net_.intersection(s.to).out) {
      if (out == s.reverse) continue;
      const double d = angle_between(s.unit_dir.angle(),
                                     net_.segment(out).unit_dir.angle());
      if (d < 0.1) straight = out;
      if (d > 1.0) crossing = out;
    }
    if (straight.valid() && crossing.valid()) {
      EXPECT_FALSE(policy.is_turn(in, straight));
      EXPECT_TRUE(policy.is_turn(in, crossing));
      return;
    }
  }
  FAIL() << "no suitable intersection found";
}

TEST_F(TurnPolicyTest, ArteryBiasIsEffective) {
  // With a huge artery weight, exits onto arteries dominate.
  TurnPolicyConfig cfg;
  cfg.artery_weight = 1000.0;
  cfg.straight_bonus = 1.0;
  TurnPolicy policy(net_, cfg);
  Rng rng(5);
  // Arrive at an artery/artery crossing from a normal road.
  for (std::size_t i = 0; i < net_.segment_count(); ++i) {
    const SegmentId in{i};
    if (net_.is_artery(in)) continue;
    const Segment& s = net_.segment(in);
    bool has_artery_exit = false;
    for (SegmentId out : net_.intersection(s.to).out) {
      if (out != s.reverse && net_.is_artery(out)) has_artery_exit = true;
    }
    if (!has_artery_exit) continue;
    int artery_exits = 0;
    for (int k = 0; k < 100; ++k) {
      if (net_.is_artery(policy.choose_exit(in, rng))) ++artery_exits;
    }
    EXPECT_GT(artery_exits, 95);
    return;
  }
  FAIL() << "no suitable approach found";
}

// --- mobility model ------------------------------------------------------------

class MobilityModelTest : public ::testing::Test {
 protected:
  MobilityModelTest() : net_(build_manhattan_map({})), sim_(1) {}
  RoadNetwork net_;
  Simulator sim_;
};

TEST_F(MobilityModelTest, StraightLineKinematics) {
  MobilityConfig cfg;
  cfg.lights.enabled = false;
  MobilityModel mob(sim_, net_, cfg);
  // 10 m/s along a fresh segment.
  const VehicleId v = mob.add_vehicle(SegmentId{std::size_t{0}}, 0.0, 10.0);
  mob.start();
  const Vec2 start = mob.position(v);
  sim_.run_until(SimTime::from_sec(10));
  // It may have passed intersections, but total path length is speed*time;
  // with lights off it never waits, so displacement along the graph is 100m.
  // Check it is exactly on the graph and moved.
  EXPECT_NE(mob.position(v), start);
}

TEST_F(MobilityModelTest, SpeedIsRespectedBetweenIntersections) {
  MobilityConfig cfg;
  cfg.lights.enabled = false;
  MobilityModel mob(sim_, net_, cfg);
  const VehicleId v = mob.add_vehicle(SegmentId{std::size_t{0}}, 0.0, 8.0);
  mob.start();
  sim_.run_until(SimTime::from_sec(5));
  const VehicleState& s = mob.state(v);
  // After 5 s at 8 m/s on a 250 m segment: offset 40 m, same segment.
  EXPECT_EQ(s.seg, SegmentId{std::size_t{0}});
  EXPECT_NEAR(s.offset, 40.0, 1e-6);
}

TEST_F(MobilityModelTest, WaitsAtRedLight) {
  MobilityConfig cfg;
  cfg.lights.red_sec = 50.0;
  MobilityModel mob(sim_, net_, cfg);
  // Fast vehicle close to the intersection: it must arrive and, if red,
  // wait with offset == segment length.
  const VehicleId v = mob.add_vehicle(SegmentId{std::size_t{0}}, 0.0, 15.0);
  mob.start();
  bool observed_wait = false;
  for (int tick = 0; tick < 400; ++tick) {
    sim_.run_until(SimTime::from_sec(0.5 * tick));
    const VehicleState& s = mob.state(v);
    if (s.waiting) {
      observed_wait = true;
      EXPECT_DOUBLE_EQ(s.offset, net_.segment(s.seg).length);
      break;
    }
  }
  EXPECT_TRUE(observed_wait);
}

class PassRecorder : public MovementListener {
 public:
  struct Pass {
    VehicleId v;
    IntersectionId node;
    SegmentId in;
    SegmentId out;
  };
  void on_intersection_pass(VehicleId v, IntersectionId node, SegmentId in,
                            SegmentId out) override {
    passes.push_back({v, node, in, out});
  }
  void on_moved(VehicleId v, Vec2 before, Vec2 after) override {
    moved.push_back(v);
    EXPECT_NE(before, after);
  }
  void on_tick() override { ++ticks; }
  std::vector<Pass> passes;
  std::vector<VehicleId> moved;
  int ticks = 0;
};

TEST_F(MobilityModelTest, ListenersSeeConsistentEvents) {
  MobilityConfig cfg;
  cfg.lights.enabled = false;
  MobilityModel mob(sim_, net_, cfg);
  PassRecorder rec;
  mob.add_listener(&rec);
  mob.add_vehicle(SegmentId{std::size_t{0}}, 200.0, 14.0);
  mob.start();
  sim_.run_until(SimTime::from_sec(60));
  ASSERT_FALSE(rec.passes.empty());
  for (const auto& p : rec.passes) {
    // The pass happens at the end of the in segment...
    EXPECT_EQ(net_.segment(p.in).to, p.node);
    // ...and the out segment leaves from that intersection.
    EXPECT_EQ(net_.segment(p.out).from, p.node);
    // No U-turn at a 4-way intersection.
    if (net_.intersection(p.node).out.size() > 1) {
      EXPECT_NE(p.out, net_.segment(p.in).reverse);
    }
  }
  EXPECT_GT(rec.ticks, 100);
  EXPECT_FALSE(rec.moved.empty());
}

TEST_F(MobilityModelTest, RandomPlacementRespectsCountAndBounds) {
  MobilityModel mob(sim_, net_, {});
  mob.place_random_vehicles(100);
  EXPECT_EQ(mob.vehicle_count(), 100u);
  const Aabb bounds = net_.bounds().inflated(1.0);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(bounds.contains_closed(mob.position(VehicleId{i})));
  }
}

TEST_F(MobilityModelTest, PlacementFavorsArteries) {
  MobilityConfig cfg;
  cfg.artery_placement_weight = 10.0;
  MobilityModel mob(sim_, net_, cfg);
  mob.place_random_vehicles(1000);
  int on_artery = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    if (net_.is_artery(mob.state(VehicleId{i}).seg)) ++on_artery;
  }
  // Artery road-metres are ~56% of the map; weighted x10 -> ~93%.
  EXPECT_GT(on_artery, 850);
}

TEST_F(MobilityModelTest, StationaryArteryShareMatchesPaper) {
  // The paper measures ~90% of vehicles on arteries; the default turn policy
  // must keep the stationary share near that.
  MobilityModel mob(sim_, net_, {});
  mob.place_random_vehicles(500);
  mob.start();
  sim_.run_until(SimTime::from_sec(240));
  int on_artery = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    if (net_.is_artery(mob.state(VehicleId{i}).seg)) ++on_artery;
  }
  const double share = on_artery / 500.0;
  EXPECT_GT(share, 0.80);
  EXPECT_LT(share, 0.97);
}

TEST_F(MobilityModelTest, DeterministicAcrossRuns) {
  auto positions = [&](std::uint64_t seed) {
    Simulator sim(seed);
    MobilityModel mob(sim, net_, {});
    mob.place_random_vehicles(50);
    mob.start();
    sim.run_until(SimTime::from_sec(60));
    std::vector<Vec2> out;
    for (std::size_t i = 0; i < 50; ++i) out.push_back(mob.position(VehicleId{i}));
    return out;
  };
  EXPECT_EQ(positions(7), positions(7));
  EXPECT_NE(positions(7), positions(8));
}

TEST_F(MobilityModelTest, ParkedVehiclesNeverMove) {
  MobilityConfig cfg;
  cfg.parked_fraction = 1.0;
  MobilityModel mob(sim_, net_, cfg);
  mob.place_random_vehicles(20);
  mob.start();
  std::vector<Vec2> before;
  for (std::size_t i = 0; i < 20; ++i) before.push_back(mob.position(VehicleId{i}));
  sim_.run_until(SimTime::from_sec(120));
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(mob.position(VehicleId{i}), before[i]);
    EXPECT_DOUBLE_EQ(mob.state(VehicleId{i}).speed, 0.0);
  }
}

TEST_F(MobilityModelTest, ParkedFractionIsApproximatelyHonored) {
  MobilityConfig cfg;
  cfg.parked_fraction = 0.25;
  MobilityModel mob(sim_, net_, cfg);
  mob.place_random_vehicles(1000);
  int parked = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    if (mob.state(VehicleId{i}).speed == 0.0) ++parked;
  }
  EXPECT_NEAR(parked, 250, 60);
}

TEST_F(MobilityModelTest, ExplicitParkedVehicleAccepted) {
  MobilityModel mob(sim_, net_, {});
  const VehicleId v = mob.add_vehicle(SegmentId{std::size_t{0}}, 10.0, 0.0);
  mob.start();
  sim_.run_until(SimTime::from_sec(30));
  EXPECT_DOUBLE_EQ(mob.state(v).offset, 10.0);
}

// --- parking-churn lifecycle -------------------------------------------------

// Records the lifecycle events a protocol agent would see.
class ParkingListener : public MovementListener {
 public:
  void on_parked(VehicleId v) override { parked.push_back(v); }
  void on_departed(VehicleId v, bool abrupt) override {
    departed.emplace_back(v, abrupt);
  }
  std::vector<VehicleId> parked;
  std::vector<std::pair<VehicleId, bool>> departed;
};

MobilityConfig churny_config() {
  MobilityConfig cfg;
  cfg.parked_fraction = 0.3;
  cfg.churn.enabled = true;
  cfg.churn.park_rate_per_sec = 0.02;
  cfg.churn.dwell_mean_sec = 30.0;
  cfg.churn.min_dwell_sec = 10.0;
  return cfg;
}

TEST_F(MobilityModelTest, ChurnLifecycleFiresParkAndDepartEvents) {
  MobilityModel mob(sim_, net_, churny_config());
  ParkingListener listener;
  mob.add_listener(&listener);
  mob.place_random_vehicles(200);
  mob.start();
  sim_.run_until(SimTime::from_sec(300));
  EXPECT_GT(mob.park_events(), 0u);
  EXPECT_GT(mob.depart_events(), 0u);
  EXPECT_EQ(listener.parked.size(), mob.park_events());
  EXPECT_EQ(listener.departed.size(), mob.depart_events());
  // Dwell expiries are graceful departures, never abrupt.
  for (const auto& [v, abrupt] : listener.departed) EXPECT_FALSE(abrupt);
  // parked() reflects the lifecycle: a departed vehicle is moving again.
  for (const auto& [v, abrupt] : listener.departed) {
    if (mob.parked(v)) continue;  // may have re-parked later
    EXPECT_GT(mob.state(v).speed, 0.0);
  }
}

TEST_F(MobilityModelTest, ChurnDepartsRespectMinimumDwell) {
  MobilityConfig cfg = churny_config();
  cfg.parked_fraction = 0.0;  // only lifecycle parks, so park times are known
  MobilityModel mob(sim_, net_, cfg);
  struct Timed : MovementListener {
    explicit Timed(Simulator& s) : sim(&s) {}
    void on_parked(VehicleId v) override { at[v.index()] = sim->now(); }
    void on_departed(VehicleId v, bool abrupt) override {
      (void)abrupt;
      ASSERT_TRUE(at.count(v.index()) != 0u);
      dwells.push_back((sim->now() - at[v.index()]).sec());
      at.erase(v.index());
    }
    Simulator* sim;
    std::map<std::size_t, SimTime> at;
    std::vector<double> dwells;
  } listener{sim_};
  mob.add_listener(&listener);
  mob.place_random_vehicles(300);
  mob.start();
  sim_.run_until(SimTime::from_sec(400));
  ASSERT_GT(listener.dwells.size(), 10u);
  for (const double d : listener.dwells) {
    // One mobility tick of slack: departures fire on tick boundaries.
    EXPECT_GE(d, cfg.churn.min_dwell_sec - kMobilityTickSec);
  }
}

TEST_F(MobilityModelTest, ForceDepartIsAbruptAndOnlyActsOnParked) {
  MobilityModel mob(sim_, net_, churny_config());
  ParkingListener listener;
  mob.add_listener(&listener);
  mob.place_random_vehicles(50);
  mob.start();
  sim_.run_until(SimTime::from_sec(5));
  VehicleId parked_v, moving_v;
  for (std::size_t i = 0; i < 50; ++i) {
    (mob.parked(VehicleId{i}) ? parked_v : moving_v) = VehicleId{i};
  }
  ASSERT_TRUE(parked_v.valid());
  ASSERT_TRUE(moving_v.valid());
  EXPECT_FALSE(mob.force_depart(moving_v));
  listener.departed.clear();
  EXPECT_TRUE(mob.force_depart(parked_v));
  EXPECT_FALSE(mob.parked(parked_v));
  EXPECT_GT(mob.state(parked_v).speed, 0.0);
  ASSERT_EQ(listener.departed.size(), 1u);
  EXPECT_EQ(listener.departed[0].first, parked_v);
  EXPECT_TRUE(listener.departed[0].second);  // abrupt
}

TEST_F(MobilityModelTest, DisabledChurnDrawsNoExtraRandomness) {
  // Setting the churn knobs without enabling the lifecycle must leave every
  // trajectory untouched — disabled churn consumes zero RNG draws.
  auto positions = [&](const MobilityConfig& cfg) {
    Simulator sim(11);
    MobilityModel mob(sim, net_, cfg);
    mob.place_random_vehicles(80);
    mob.start();
    sim.run_until(SimTime::from_sec(90));
    std::vector<Vec2> out;
    out.reserve(80);
    for (std::size_t i = 0; i < 80; ++i) {
      out.push_back(mob.position(VehicleId{i}));
    }
    return out;
  };
  MobilityConfig plain;
  plain.parked_fraction = 0.2;
  MobilityConfig knobs = plain;
  knobs.churn.park_rate_per_sec = 0.5;  // ignored: enabled stays false
  knobs.churn.dwell_mean_sec = 1.0;
  knobs.churn.min_dwell_sec = 0.1;
  EXPECT_EQ(positions(plain), positions(knobs));
}

TEST_F(MobilityModelTest, ChurnLifecycleIsDeterministic) {
  auto counts = [&](std::uint64_t seed) {
    Simulator sim(seed);
    MobilityModel mob(sim, net_, churny_config());
    mob.place_random_vehicles(150);
    mob.start();
    sim.run_until(SimTime::from_sec(200));
    return std::make_pair(mob.park_events(), mob.depart_events());
  };
  EXPECT_EQ(counts(21), counts(21));
  EXPECT_NE(counts(21), counts(22));
}

// --- kept poses and the batch hook -------------------------------------------

bool same_bits(Vec2 a, Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

// After every tick, checks each kept pose against the pose recomputed from
// the kinematic state, and each move event against the model.
class PoseChecker : public MovementListener {
 public:
  explicit PoseChecker(const MobilityModel& mob) : mob_(&mob) {}
  void on_tick_events(std::span<const TickEvent> events) override {
    for (const TickEvent& e : events) {
      if (e.is_pass()) continue;
      ++moves;
      if (!same_bits(e.after, mob_->position(e.v))) ++mismatches;
      const Vec2 velocity = mob_->heading(e.v) * mob_->state(e.v).speed;
      if (!same_bits(e.velocity, velocity)) ++mismatches;
    }
  }
  void on_tick() override {
    ++ticks;
    check_all();
  }
  void check_all() {
    for (std::size_t i = 0; i < mob_->vehicle_count(); ++i) {
      const VehicleId v{i};
      const VehicleState& s = mob_->state(v);
      if (!same_bits(mob_->position(v),
                     mob_->network().point_on(s.seg, s.offset))) {
        ++mismatches;
      }
    }
  }
  const MobilityModel* mob_;
  int ticks = 0;
  int moves = 0;
  int mismatches = 0;
};

TEST_F(MobilityModelTest, KeptPoseIsPointOnAfterEveryTick) {
  MobilityModel mob(sim_, net_, churny_config());
  PoseChecker checker(mob);
  mob.add_listener(&checker);
  mob.place_random_vehicles(200);
  mob.start();
  // Abrupt departures between ticks, as the fault layer's burst windows do:
  // every 7.25 s the lowest-id parked vehicle is forced back on the road.
  int forced = 0;
  for (int k = 1; k <= 40; ++k) {
    sim_.run_until(SimTime::from_sec(7.25 * k));
    for (std::size_t i = 0; i < mob.vehicle_count(); ++i) {
      if (mob.force_depart(VehicleId{i})) {
        ++forced;
        break;
      }
    }
    checker.check_all();  // a departure does not move the vehicle
  }
  EXPECT_GT(forced, 20);
  EXPECT_GT(mob.park_events(), 0u);
  EXPECT_GT(checker.ticks, 500);
  EXPECT_GT(checker.moves, 10000);
  EXPECT_EQ(checker.mismatches, 0);
}

TEST_F(MobilityModelTest, BatchHookSeesThePerEventSequence) {
  // One listener overrides the batch hook, one the per-event hooks (through
  // the batch hook's default); both must see the same tick sequence, in
  // vehicle-id order with a vehicle's passes before its move.
  struct Seen {
    VehicleId v;
    bool pass;
    bool operator==(const Seen&) const = default;
  };
  struct Batch : MovementListener {
    void on_tick_events(std::span<const TickEvent> events) override {
      for (const TickEvent& e : events) seen.push_back({e.v, e.is_pass()});
    }
    std::vector<Seen> seen;
  } batch;
  struct PerEvent : MovementListener {
    void on_intersection_pass(VehicleId v, IntersectionId, SegmentId,
                              SegmentId) override {
      seen.push_back({v, true});
    }
    void on_moved(VehicleId v, Vec2, Vec2) override {
      seen.push_back({v, false});
      moves_in_tick.push_back(v);
    }
    void on_tick() override {
      for (std::size_t i = 1; i < moves_in_tick.size(); ++i) {
        if (!(moves_in_tick[i - 1].value() < moves_in_tick[i].value())) {
          ++out_of_order;
        }
      }
      moves_in_tick.clear();
    }
    std::vector<Seen> seen;
    std::vector<VehicleId> moves_in_tick;
    int out_of_order = 0;
  } per_event;
  MobilityModel mob(sim_, net_, churny_config());
  mob.add_listener(&batch);
  mob.add_listener(&per_event);
  mob.place_random_vehicles(100);
  mob.start();
  sim_.run_until(SimTime::from_sec(120));
  ASSERT_GT(batch.seen.size(), 1000u);
  EXPECT_TRUE(batch.seen == per_event.seen);
  EXPECT_EQ(per_event.out_of_order, 0);
  // A pass is always followed by more events of the same vehicle (at
  // least its move) within the tick.
  for (std::size_t i = 0; i + 1 < batch.seen.size(); ++i) {
    if (batch.seen[i].pass) {
      EXPECT_EQ(batch.seen[i + 1].v, batch.seen[i].v);
    }
  }
  EXPECT_FALSE(batch.seen.back().pass);
}

// Parameterized: vehicles never leave the road graph across speeds.
class MobilitySpeedSweep : public ::testing::TestWithParam<double> {};

TEST_P(MobilitySpeedSweep, VehicleStaysOnGraph) {
  RoadNetwork net = build_manhattan_map({});
  Simulator sim(3);
  MobilityConfig cfg;
  cfg.min_speed_kmh = GetParam();
  cfg.max_speed_kmh = GetParam();
  MobilityModel mob(sim, net, cfg);
  mob.place_random_vehicles(20);
  mob.start();
  for (int t = 1; t <= 12; ++t) {
    sim.run_until(SimTime::from_sec(t * 10));
    for (std::size_t i = 0; i < 20; ++i) {
      const VehicleState& s = mob.state(VehicleId{i});
      EXPECT_GE(s.offset, 0.0);
      EXPECT_LE(s.offset, net.segment(s.seg).length + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Speeds, MobilitySpeedSweep,
                         ::testing::Values(5.0, 20.0, 40.0, 60.0, 90.0));

}  // namespace
}  // namespace hlsrg
