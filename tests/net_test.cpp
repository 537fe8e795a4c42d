// Tests for net: registry, neighbor index, radio medium, GPSR, geocast, and
// the wired backhaul.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numbers>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/geocast.h"
#include "net/gpsr.h"
#include "net/neighbor_index.h"
#include "net/node_registry.h"
#include "net/radio.h"
#include "net/receiver_kernels.h"
#include "net/wired.h"
#include "sim/simulator.h"

namespace hlsrg {
namespace {

// Records every packet it receives.
class CaptureSink : public PacketSink {
 public:
  void on_receive(const Packet& packet, NodeId from) override {
    received.push_back({packet, from});
  }
  struct Rx {
    Packet packet;
    NodeId from;
  };
  std::vector<Rx> received;
};

struct TestPayload final : PayloadBase {
  int value = 0;
};

Packet make_test_packet(int value = 7) {
  auto p = std::make_shared<TestPayload>();
  p->value = value;
  Packet pkt;
  pkt.id = PacketId{std::uint32_t{1}};
  pkt.kind = PacketKind::kQueryRequest;
  pkt.payload = p;
  return pkt;
}

// A registry of static nodes with capture sinks.
class StaticNet {
 public:
  explicit StaticNet(Simulator& sim, RadioConfig cfg = {})
      : sim_(&sim) {
    cfg_ = cfg;
  }

  NodeId add(Vec2 pos) {
    sinks_.push_back(std::make_unique<CaptureSink>());
    const NodeId id = registry_.add_node(pos, sinks_.back().get());
    return id;
  }

  RadioMedium& medium() {
    if (!medium_) medium_ = std::make_unique<RadioMedium>(*sim_, registry_, cfg_);
    return *medium_;
  }

  CaptureSink& sink(NodeId id) { return *sinks_[id.index()]; }
  NodeRegistry& registry() { return registry_; }

 private:
  Simulator* sim_;
  RadioConfig cfg_;
  NodeRegistry registry_;
  std::vector<std::unique_ptr<CaptureSink>> sinks_;
  std::unique_ptr<RadioMedium> medium_;
};

RadioConfig lossless() {
  RadioConfig cfg;
  cfg.base_loss = 0.0;
  cfg.distance_loss = 0.0;
  cfg.contention_loss_per_neighbor = 0.0;
  return cfg;
}

// --- NodeRegistry -------------------------------------------------------------

TEST(NodeRegistryTest, PositionsArePushed) {
  NodeRegistry reg;
  const NodeId id = reg.add_node(Vec2{1, 2});
  EXPECT_EQ(reg.position(id), (Vec2{1, 2}));
  reg.set_position(id, Vec2{3, 4});
  EXPECT_EQ(reg.position(id), (Vec2{3, 4}));
}

TEST(NodeRegistryTest, VehicleSoaRows) {
  NodeRegistry reg;
  const NodeId n0 = reg.add_node(Vec2{1, 0});
  const NodeId n1 = reg.add_node(Vec2{2, 0});
  reg.bind_vehicle(VehicleId{0u}, n0);
  reg.bind_vehicle(VehicleId{1u}, n1);
  ASSERT_EQ(reg.vehicle_count(), 2u);
  EXPECT_EQ(reg.vehicle_node(VehicleId{1u}), n1);
  EXPECT_EQ(reg.vehicle_position(VehicleId{1u}), (Vec2{2, 0}));
  // Rows seed at rest / region -1; setters keep them current.
  EXPECT_FALSE(reg.vehicle_parked(VehicleId{0u}));
  EXPECT_EQ(reg.vehicle_region(VehicleId{0u}), -1);
  reg.set_vehicle_parked(VehicleId{0u}, true);
  reg.set_vehicle_velocity(VehicleId{0u}, Vec2{0, 5});
  reg.set_vehicle_region(VehicleId{0u}, 3);
  EXPECT_TRUE(reg.vehicle_parked(VehicleId{0u}));
  EXPECT_EQ(reg.vehicle_velocity(VehicleId{0u}), (Vec2{0, 5}));
  EXPECT_EQ(reg.vehicle_region(VehicleId{0u}), 3);
  // A pose push through the node handle is visible through the vehicle view.
  reg.set_position(n0, Vec2{7, 8});
  EXPECT_EQ(reg.vehicle_position(VehicleId{0u}), (Vec2{7, 8}));
}

TEST(NodeRegistryTest, SinkInstallation) {
  NodeRegistry reg;
  const NodeId id = reg.add_node(Vec2{});
  EXPECT_EQ(reg.sink(id), nullptr);
  CaptureSink sink;
  reg.set_sink(id, &sink);
  EXPECT_EQ(reg.sink(id), &sink);
}

// --- NeighborIndex ------------------------------------------------------------

TEST(NeighborIndexTest, MatchesBruteForce) {
  Simulator sim(5);
  NodeRegistry reg;
  Rng rng(5);
  std::vector<Vec2> pts;
  for (int i = 0; i < 300; ++i) {
    const Vec2 p{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    pts.push_back(p);
    reg.add_node(p);
  }
  NeighborIndex index(reg, 500.0);
  index.refresh(sim.now());
  for (int q = 0; q < 50; ++q) {
    const Vec2 query{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    std::vector<NodeId> got;
    index.query(query, 500.0, NodeId{}, &got);
    std::vector<NodeId> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (distance(pts[i], query) <= 500.0) want.push_back(NodeId{i});
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(index.count_within(query, 500.0, NodeId{}),
              static_cast<int>(want.size()));
  }
}

TEST(NeighborIndexTest, ExcludesRequestedNode) {
  Simulator sim(1);
  NodeRegistry reg;
  const NodeId a = reg.add_node(Vec2{0, 0});
  reg.add_node(Vec2{10, 0});
  NeighborIndex index(reg, 100.0);
  index.refresh(sim.now());
  std::vector<NodeId> out;
  index.query({0, 0}, 100.0, a, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_NE(out[0], a);
}

TEST(NeighborIndexTest, LaterTimestampWithoutPoseWriteKeepsDensityCache) {
  NodeRegistry reg;
  Rng rng(7);
  const NodeId probe = reg.add_node(Vec2{500.0, 500.0});
  for (int i = 0; i < 200; ++i) {
    reg.add_node(Vec2{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  NeighborIndex index(reg, 500.0);
  index.refresh(SimTime::from_sec(1));
  const std::int32_t density = index.local_density(probe);
  EXPECT_EQ(index.rebuilds(), 1u);
  EXPECT_EQ(index.density_recounts(), 1u);

  // The clock moves on but no pose was written: no scan, no recount.
  index.refresh(SimTime::from_sec(2));
  EXPECT_EQ(index.local_density(probe), density);
  EXPECT_EQ(index.rebuilds(), 1u);
  EXPECT_EQ(index.density_recounts(), 1u);
}

TEST(NeighborIndexTest, UnbumpedWriteIsVisibleAtLaterTimestamp) {
  NodeRegistry reg;
  const NodeId mover = reg.add_node(Vec2{100.0, 100.0});
  const NodeId anchor = reg.add_node(Vec2{900.0, 900.0});
  NeighborIndex index(reg, 500.0);
  index.refresh(SimTime::from_sec(10));
  reg.set_position(mover, Vec2{850.0, 900.0});  // one counted pose write
  index.refresh(SimTime::from_sec(11));
  std::vector<NodeId> out;
  index.query(Vec2{900.0, 900.0}, 500.0, anchor, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], mover);
  EXPECT_EQ(index.rebuilds(), 2u);
}

TEST(NeighborIndexTest, SameTimestampWriteIsVisibleAfterRefresh) {
  // The pose-write count, not the clock, keys the rebuild: a write at the
  // timestamp of the last build is visible after the next refresh.
  NodeRegistry reg;
  const NodeId mover = reg.add_node(Vec2{100.0, 100.0});
  const NodeId anchor = reg.add_node(Vec2{900.0, 900.0});
  NeighborIndex index(reg, 500.0);
  index.refresh(SimTime::from_sec(10));
  std::vector<NodeId> out;
  index.query(Vec2{900.0, 900.0}, 500.0, anchor, &out);
  EXPECT_TRUE(out.empty()) << "mover should start out of range";
  reg.set_position(mover, Vec2{850.0, 900.0});
  index.refresh(SimTime::from_sec(10));
  index.query(Vec2{900.0, 900.0}, 500.0, anchor, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], mover);
  EXPECT_EQ(index.rebuilds(), 2u);
}

TEST(NeighborIndexTest, NodeAtExactlyRadiusIsInRange) {
  // Range is a closed disc. Stop-line queues at neighbouring artery
  // intersections sit exactly one artery spacing (= radio range) apart, so
  // this tie decides who hears an update sent from an intersection.
  NodeRegistry reg;
  const NodeId center = reg.add_node(Vec2{0.0, 0.0});
  const NodeId at_radius = reg.add_node(Vec2{500.0, 0.0});
  reg.add_node(Vec2{0.0, 500.0 + 1e-6});
  NeighborIndex index(reg, 500.0);
  index.refresh(SimTime::from_sec(1));
  std::vector<NodeId> out;
  index.query(Vec2{0.0, 0.0}, 500.0, center, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], at_radius);
  EXPECT_EQ(index.count_within(Vec2{0.0, 0.0}, 500.0, center), 1);
}

TEST(NeighborIndexTest, AddNodeAfterBuildForcesRebuild) {
  NodeRegistry reg;
  const NodeId anchor = reg.add_node(Vec2{900.0, 900.0});
  NeighborIndex index(reg, 500.0);
  index.refresh(SimTime::from_sec(10));
  const NodeId added = reg.add_node(Vec2{850.0, 900.0});
  index.refresh(SimTime::from_sec(11));
  EXPECT_EQ(index.rebuilds(), 2u);
  std::vector<NodeId> out;
  index.query(Vec2{900.0, 900.0}, 500.0, anchor, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], added);
}

// Brute-force receivers within one cell size of `p`, in the index's visit
// order: by cell column, then cell row, then ascending id.
std::vector<NodeId> ordered_in_range(const std::vector<Vec2>& pts, Vec2 p,
                                     double cell, NodeId exclude) {
  std::vector<std::tuple<double, double, NodeId>> hits;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const NodeId id{i};
    if (id == exclude || distance2(pts[i], p) > cell * cell) continue;
    hits.emplace_back(std::floor(pts[i].x / cell), std::floor(pts[i].y / cell),
                      id);
  }
  std::sort(hits.begin(), hits.end());
  std::vector<NodeId> ids;
  for (const auto& hit : hits) ids.push_back(std::get<2>(hit));
  return ids;
}

// Population of the 3x3 cell block around `id`'s cell, minus `id` itself.
std::int32_t block_bound(const std::vector<Vec2>& pts, NodeId id,
                         double cell) {
  const double cx = std::floor(pts[id.index()].x / cell);
  const double cy = std::floor(pts[id.index()].y / cell);
  std::int32_t n = -1;
  for (const Vec2& q : pts) {
    if (std::abs(std::floor(q.x / cell) - cx) <= 1.0 &&
        std::abs(std::floor(q.y / cell) - cy) <= 1.0) {
      ++n;
    }
  }
  return n;
}

// Checks every walk at `p` against the brute force: query, query_with_density
// and count_within see exactly the in-range nodes in cell-major order, and
// each density is the exact count where the 3x3 cell sum exceeds the
// saturation threshold and that cell sum elsewhere.
void expect_ordered_walk(NeighborIndex& index, const std::vector<Vec2>& pts,
                         Vec2 p, double cell, int saturation, NodeId exclude) {
  const std::vector<NodeId> want = ordered_in_range(pts, p, cell, exclude);
  std::vector<NodeId> got;
  index.query(p, cell, exclude, &got);
  EXPECT_EQ(got, want) << "query at " << p;
  EXPECT_EQ(index.count_within(p, cell, exclude),
            static_cast<int>(want.size()));
  std::vector<NodeId> walked;
  std::vector<std::int32_t> density;
  index.query_with_density(p, cell, exclude, &walked, &density);
  EXPECT_EQ(walked, want) << "query_with_density at " << p;
  ASSERT_EQ(density.size(), walked.size());
  for (std::size_t i = 0; i < walked.size(); ++i) {
    const std::int32_t bound = block_bound(pts, walked[i], cell);
    EXPECT_EQ(density[i],
              bound > saturation ? index.exact_density(walked[i]) : bound);
  }
}

TEST(NeighborIndexTest, ReceiverOrderIsCellMajorThenId) {
  // The radio draws one loss sample per receiver in walk order, so the
  // order itself is behaviour: column (dx) outer, row (dy) inner, ascending
  // id within a cell.
  constexpr double kCell = 500.0;
  constexpr int kSaturation = 12;
  NodeRegistry reg;
  Rng rng(19);
  std::vector<Vec2> pts;
  for (int i = 0; i < 400; ++i) {
    const Vec2 p{rng.uniform(-1000.0, 2000.0), rng.uniform(-1000.0, 2000.0)};
    pts.push_back(p);
    reg.add_node(p);
  }
  NeighborIndex index(reg, kCell, kSaturation);
  index.refresh(SimTime::from_sec(1));
  for (int q = 0; q < 60; ++q) {
    const Vec2 p{rng.uniform(-1200.0, 2200.0), rng.uniform(-1200.0, 2200.0)};
    const NodeId exclude =
        q % 2 == 0 ? NodeId{} : NodeId{static_cast<std::size_t>(q * 5)};
    expect_ordered_walk(index, pts, p, kCell, kSaturation, exclude);
  }
}

TEST(NeighborIndexTest, DenseGridEdgeCases) {
  constexpr double kCell = 500.0;
  constexpr int kSaturation = 2;
  NodeRegistry reg;
  std::vector<Vec2> pts;
  NeighborIndex index(reg, kCell, kSaturation);
  const auto walk = [&](Vec2 p, NodeId exclude) {
    expect_ordered_walk(index, pts, p, kCell, kSaturation, exclude);
  };

  // Empty registry: every walk is empty.
  index.refresh(SimTime::from_sec(1));
  walk(Vec2{0.0, 0.0}, NodeId{});
  walk(Vec2{-3000.0, 9000.0}, NodeId{});

  // A single node.
  const NodeId only = reg.add_node(Vec2{-10.0, 20.0});
  pts.push_back(reg.position(only));
  index.refresh(SimTime::from_sec(2));
  EXPECT_EQ(index.local_density(only), 0);
  EXPECT_EQ(index.exact_density(only), 0);
  for (const Vec2 p : {Vec2{-10.0, 20.0}, Vec2{400.0, 20.0},
                       Vec2{-510.0, -480.0}, Vec2{5000.0, 20.0}}) {
    walk(p, NodeId{});
    walk(p, only);
  }

  // Nodes at negative coordinates, spanning cells -2..1 on both axes, some
  // exactly on cell edges.
  Rng rng(23);
  for (int i = 0; i < 120; ++i) {
    const Vec2 p{rng.uniform(-1000.0, 999.0), rng.uniform(-1000.0, 999.0)};
    pts.push_back(p);
    reg.add_node(p);
  }
  for (const Vec2 p : {Vec2{-500.0, -500.0}, Vec2{0.0, -1000.0},
                       Vec2{-1000.0, 500.0}}) {
    pts.push_back(p);
    reg.add_node(p);
  }
  index.refresh(SimTime::from_sec(3));
  // Query points inside the box, on its edges, just off each edge (the 3x3
  // block only partly overlaps the grid), off each corner, and far away.
  const std::vector<Vec2> probes = {
      {-250.0, -250.0},  {0.0, 0.0},         {-1000.0, -1000.0},
      {-1200.0, 100.0},  {1300.0, 100.0},    {100.0, -1200.0},
      {100.0, 1300.0},   {-1300.0, -1300.0}, {1400.0, 1400.0},
      {-1300.0, 1400.0}, {1400.0, -1300.0},  {-1600.0, 0.0},
      {0.0, 1600.0},     {-9000.0, 0.0},     {0.0, 1e7}};
  for (const Vec2 p : probes) walk(p, NodeId{});
  for (std::size_t i = 0; i < pts.size(); i += 7) walk(pts[i], NodeId{i});

  // add_node grows the box on the next refresh.
  const NodeId far = reg.add_node(Vec2{-2600.0, 3100.0});
  pts.push_back(reg.position(far));
  index.refresh(SimTime::from_sec(4));
  EXPECT_EQ(index.rebuilds(), 4u);
  std::vector<NodeId> out;
  index.query(Vec2{-2500.0, 3000.0}, kCell, NodeId{}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], far);
  EXPECT_EQ(index.local_density(far), 0);
  for (const Vec2 p : probes) walk(p, NodeId{});
  walk(Vec2{-2900.0, 3400.0}, NodeId{});
}

TEST(NeighborIndexDeathTest, CountWithinRejectsRadiusBeyondCell) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  NodeRegistry reg;
  reg.add_node(Vec2{0.0, 0.0});
  NeighborIndex index(reg, 100.0);
  index.refresh(SimTime::from_sec(1));
  EXPECT_DEATH((void)index.count_within(Vec2{0.0, 0.0}, 250.0, NodeId{}),
               "query radius must not exceed the grid cell size");
}

TEST(NeighborIndexDeathTest, RefreshRejectsGridBeyondOffsetRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  NodeRegistry reg;
  reg.add_node(Vec2{0.0, 0.0});
  reg.add_node(Vec2{1e12, 1e12});
  NeighborIndex index(reg, 1.0);
  EXPECT_DEATH(index.refresh(SimTime::from_sec(1)),
               "grid cell count exceeds the slot-offset range");
}

TEST(NeighborIndexTest, CellCoordIsExactFloor) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  NodeRegistry reg;
  Rng rng(31);
  for (const double cell : {500.0, 1.0, 0.3}) {
    const NeighborIndex index(reg, cell);
    std::vector<double> values = {0.0,    -0.0,    1e12,         -1e12,
                                  1e-300, -1e-300, 0.5 * cell,   -0.5 * cell,
                                  1e-9,   -1e-9,   -cell / 3.0,  cell / 3.0};
    for (int k = -6; k <= 6; ++k) {
      const double multiple = k * cell;
      values.push_back(multiple);
      values.push_back(std::nextafter(multiple, kInf));
      values.push_back(std::nextafter(multiple, -kInf));
    }
    for (int i = 0; i < 200; ++i) values.push_back(rng.uniform(-5e4, 5e4));
    for (const double v : values) {
      EXPECT_EQ(index.cell_coord(v),
                static_cast<std::int64_t>(std::floor(v / cell)))
          << v << " / " << cell;
    }
  }
}

// Points within a few ulps of the circle of radius `r` around `p` where the
// in-range predicate's rounding decides. `inside` holds points that the
// two-product sum dx * dx + dy * dy puts in range and both FMA contractions
// of it put out of range; `outside` holds points that the two-product sum
// puts out of range and at least one contraction puts in range. With more
// inside than outside ties, a contracted kernel miscounts whichever
// product it fuses.
struct ContractionTies {
  std::vector<Vec2> inside;
  std::vector<Vec2> outside;
};

ContractionTies contraction_ties(Vec2 p, double r, std::size_t inside,
                                 std::size_t outside) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double r2 = r * r;
  ContractionTies ties;
  Rng rng(37);
  for (int attempt = 0;
       attempt < 2'000'000 &&
       (ties.inside.size() < inside || ties.outside.size() < outside);
       ++attempt) {
    const double a = rng.uniform(0.0, 6.283185307179586);
    Vec2 q{p.x + r * std::cos(a), p.y + r * std::sin(a)};
    for (std::int64_t k = rng.uniform_int(-4, 4); k != 0; k += k > 0 ? -1 : 1) {
      q.x = std::nextafter(q.x, k > 0 ? kInf : -kInf);
    }
    const double dx = q.x - p.x;
    const double dy = q.y - p.y;
    const bool two = dx * dx + dy * dy <= r2;
    const bool fused_x = std::fma(dx, dx, dy * dy) <= r2;
    const bool fused_y = std::fma(dy, dy, dx * dx) <= r2;
    if (two && !fused_x && !fused_y && ties.inside.size() < inside) {
      ties.inside.push_back(q);
    } else if (!two && (fused_x || fused_y) && ties.outside.size() < outside) {
      ties.outside.push_back(q);
    }
  }
  return ties;
}

TEST(NeighborIndexTest, ContractionTiesCountByTwoProducts) {
  // The probe sits mid-cell, so every tie is in its 3x3 block.
  constexpr double kRange = 500.0;
  const Vec2 p{250.3, 249.7};
  const ContractionTies ties = contraction_ties(p, kRange, 40, 20);
  ASSERT_EQ(ties.inside.size(), 40u);
  ASSERT_EQ(ties.outside.size(), 20u);

  NodeRegistry reg;
  const NodeId probe = reg.add_node(p);
  std::vector<NodeId> want;
  std::vector<double> xs;
  std::vector<double> ys;
  for (const std::vector<Vec2>* side : {&ties.inside, &ties.outside}) {
    for (const Vec2 q : *side) {
      const NodeId id = reg.add_node(q);
      if (side == &ties.inside) want.push_back(id);
      xs.push_back(q.x);
      ys.push_back(q.y);
    }
  }
  const auto in_range = static_cast<std::int32_t>(ties.inside.size());

  // Every kernel variant the host runs.
  for (const ReceiverKernels& k : host_receiver_kernels()) {
    EXPECT_EQ(k.count_in_disc(xs.data(), ys.data(), xs.size(), p.x, p.y,
                              kRange * kRange),
              in_range)
        << k.name;
  }

  // The index, through the variant this process picked.
  NeighborIndex index(reg, kRange);
  index.refresh(SimTime::from_sec(1));
  EXPECT_EQ(index.count_within(p, kRange, probe), in_range);
  EXPECT_EQ(index.count_within(p, kRange, NodeId{}), in_range + 1);
  EXPECT_EQ(index.local_density(probe), in_range);
  EXPECT_EQ(index.exact_density(probe), in_range);
  std::vector<NodeId> got;
  index.query(p, kRange, probe, &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

// --- RadioMedium ------------------------------------------------------------

TEST(RadioTest, LossProbabilityMonotoneInDistance) {
  Simulator sim(1);
  NodeRegistry reg;
  RadioMedium medium(sim, reg, {});
  double prev = -1.0;
  for (double d = 0; d <= 500; d += 50) {
    const double p = medium.loss_probability(d, 0);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(RadioTest, LossProbabilityGrowsWithContention) {
  Simulator sim(1);
  NodeRegistry reg;
  RadioMedium medium(sim, reg, {});
  EXPECT_GT(medium.loss_probability(100, 100),
            medium.loss_probability(100, 0));
}

// The broadcast's batched loss pass must return loss_probability() bit for
// bit: distance 0 and exactly the range, densities around the
// contention-free threshold and past max_loss, and loss zones, including
// ones that push p to certain loss. 203 receivers cover several kernel
// chunks and a ragged tail.
TEST(RadioTest, BatchLossMatchesScalarLossBitForBit) {
  Simulator sim(1);
  NodeRegistry reg;
  const RadioConfig cfg;
  RadioMedium medium(sim, reg, cfg);
  const Vec2 tx{1000.25, 999.75};  // binary-exact, so two hops are exactly
                                   // the range long
  Rng rng(41);
  reg.add_node(tx);
  reg.add_node(tx + Vec2{cfg.range_m, 0.0});
  reg.add_node(tx + Vec2{0.0, -cfg.range_m});
  while (reg.count() < 203) {
    reg.add_node({rng.uniform(300.0, 1700.0), rng.uniform(300.0, 1700.0)});
  }
  std::vector<NodeId> unused;
  medium.nodes_near(tx, cfg.range_m, NodeId{}, &unused);  // refreshes
  const NeighborIndex& index = medium.index();

  std::vector<std::uint32_t> slots(index.size());
  std::vector<std::int32_t> density(slots.size());
  const std::int32_t edges[] = {0, 14, 15, 16, 17, 100, 485, 1'000'000};
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i] = index.slot_of(NodeId{i});
    density[i] = i < std::size(edges)
                     ? edges[i]
                     : static_cast<std::int32_t>(rng.uniform_int(0, 600));
  }
  const auto expect_bitwise_equal = [&](const char* what) {
    std::vector<double> p;
    medium.batch_loss(tx, slots, density, &p);
    ASSERT_EQ(p.size(), slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Vec2 rx = index.slot_pos(slots[i]);
      const double want =
          medium.loss_probability(distance(tx, rx), density[i], rx);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(p[i]),
                std::bit_cast<std::uint64_t>(want))
          << what << ": receiver " << i << " at " << rx << ", density "
          << density[i] << ": " << p[i] << " vs " << want;
    }
  };
  expect_bitwise_equal("no zones");

  // Every kernel variant the host runs, without zones.
  for (const ReceiverKernels& k : host_receiver_kernels()) {
    std::vector<double> p(slots.size());
    k.hop_loss(cfg, tx.x, tx.y, index.slot_xs(), index.slot_ys(),
               slots.data(), density.data(), slots.size(), p.data());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const double want = medium.loss_probability(
          distance(tx, index.slot_pos(slots[i])), density[i]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(p[i]),
                std::bit_cast<std::uint64_t>(want))
          << k.name << ": receiver " << i;
    }
  }

  medium.set_loss_zones({{Aabb{{800.0, 800.0}, {1200.0, 1200.0}}, 0.3},
                         {Aabb{{1000.0, 300.0}, {1700.0, 1000.0}}, 0.25},
                         {Aabb{{300.0, 1300.0}, {700.0, 1700.0}}, 2.0}});
  expect_bitwise_equal("with zones");
}

TEST(RadioTest, BroadcastReachesOnlyNodesInRange) {
  Simulator sim(2);
  StaticNet net(sim, lossless());
  const NodeId sender = net.add({0, 0});
  const NodeId near = net.add({400, 0});
  const NodeId far = net.add({900, 0});
  net.medium().broadcast(sender, make_test_packet());
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(net.sink(near).received.size(), 1u);
  EXPECT_TRUE(net.sink(far).received.empty());
  EXPECT_TRUE(net.sink(sender).received.empty());  // no self-delivery
  EXPECT_EQ(sim.metrics().radio_broadcasts, 1u);
}

TEST(RadioTest, BroadcastCarriesPayloadAndSender) {
  Simulator sim(2);
  StaticNet net(sim, lossless());
  const NodeId sender = net.add({0, 0});
  const NodeId rx = net.add({100, 0});
  net.medium().broadcast(sender, make_test_packet(99));
  sim.run_until(SimTime::from_sec(1));
  ASSERT_EQ(net.sink(rx).received.size(), 1u);
  const auto& r = net.sink(rx).received[0];
  EXPECT_EQ(r.from, sender);
  EXPECT_EQ(payload_as<TestPayload>(r.packet).value, 99);
}

TEST(RadioTest, DeliveryIsDelayed) {
  Simulator sim(2);
  StaticNet net(sim, lossless());
  const NodeId sender = net.add({0, 0});
  const NodeId rx = net.add({100, 0});
  net.medium().broadcast(sender, make_test_packet());
  sim.run_until(SimTime::from_us(1));  // epsilon: nothing delivered yet
  EXPECT_TRUE(net.sink(rx).received.empty());
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(net.sink(rx).received.size(), 1u);
}

TEST(RadioTest, TotalLossDropsEverything) {
  Simulator sim(2);
  RadioConfig cfg;
  cfg.base_loss = 1.0;
  cfg.max_loss = 1.0;
  StaticNet net(sim, cfg);
  const NodeId sender = net.add({0, 0});
  const NodeId rx = net.add({100, 0});
  net.medium().broadcast(sender, make_test_packet());
  sim.run_until(SimTime::from_sec(1));
  EXPECT_TRUE(net.sink(rx).received.empty());
  EXPECT_GT(sim.metrics().radio_drops, 0u);
}

TEST(RadioTest, UnicastDeliversToSink) {
  Simulator sim(3);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({300, 0});
  bool lost = false;
  net.medium().unicast(a, b, make_test_packet(), [&] { lost = true; });
  sim.run_until(SimTime::from_sec(1));
  EXPECT_FALSE(lost);
  EXPECT_EQ(net.sink(b).received.size(), 1u);
}

TEST(RadioTest, UnicastOutOfRangeReportsLost) {
  Simulator sim(3);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({2000, 0});
  bool lost = false;
  net.medium().unicast(a, b, make_test_packet(), [&] { lost = true; });
  sim.run_until(SimTime::from_sec(1));
  EXPECT_TRUE(lost);
  EXPECT_TRUE(net.sink(b).received.empty());
}

TEST(RadioTest, UnicastRetriesOvercomeModerateLoss) {
  // With p_loss ~0.5 per attempt and 2 retries, delivery ~87.5% per frame;
  // across 200 frames expect clearly more deliveries than single-shot.
  Simulator sim(4);
  RadioConfig cfg = lossless();
  cfg.base_loss = 0.5;
  cfg.max_loss = 0.5;
  cfg.unicast_retries = 2;
  StaticNet net(sim, cfg);
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({10, 0});
  int lost = 0;
  for (int i = 0; i < 200; ++i) {
    net.medium().unicast(a, b, make_test_packet(), [&] { ++lost; });
  }
  sim.run_until(SimTime::from_sec(5));
  const int delivered = static_cast<int>(net.sink(b).received.size());
  EXPECT_EQ(delivered + lost, 200);
  EXPECT_NEAR(delivered, 175, 20);  // ~87.5%
}

TEST(RadioTest, UnicastFrameCallsExactlyOneCallback) {
  Simulator sim(5);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({100, 0});
  int delivered = 0, lost = 0;
  for (int i = 0; i < 50; ++i) {
    net.medium().unicast_frame(a, b, PacketKind::kAck, [&] { ++delivered; },
                               [&] { ++lost; });
  }
  sim.run_until(SimTime::from_sec(2));
  EXPECT_EQ(delivered + lost, 50);
  EXPECT_EQ(delivered, 50);  // lossless
  // Frame transport must not touch sinks.
  EXPECT_TRUE(net.sink(b).received.empty());
}

// Appends "<receiver>:<sender>" to a shared log and runs a one-shot hook on
// its first reception.
class OrderSink : public PacketSink {
 public:
  OrderSink(std::vector<std::string>* log, NodeId self)
      : log_(log), self_(self) {}
  void on_receive(const Packet&, NodeId from) override {
    log_->push_back(std::to_string(self_.value()) + ":" +
                    std::to_string(from.value()));
    if (hook) std::exchange(hook, nullptr)();
  }
  std::function<void()> hook;

 private:
  std::vector<std::string>* log_;
  NodeId self_;
};

TEST(RadioTest, SameInstantBroadcastsDeliverInScheduleOrder) {
  // Two broadcasts at one instant with one hop delay (no jitter) each become
  // one delivery event: A's receivers in ascending id order, then B's, then
  // what a receiver's handler scheduled with zero delay. A sink that an
  // earlier receiver's handler clears is skipped for the rest of the batch.
  Simulator sim(8);
  RadioConfig cfg = lossless();
  cfg.jitter_ms = 0.0;
  NodeRegistry reg;
  std::vector<std::string> log;
  std::vector<std::unique_ptr<OrderSink>> sinks;
  for (int i = 0; i < 5; ++i) {
    const NodeId id = reg.add_node(Vec2{100.0 + 10.0 * i, 100.0});
    sinks.push_back(std::make_unique<OrderSink>(&log, id));
    reg.set_sink(id, sinks.back().get());
  }
  RadioMedium medium(sim, reg, cfg);
  const NodeId a{0u};
  const NodeId b{1u};
  sinks[2]->hook = [&] {
    reg.set_sink(NodeId{4u}, nullptr);
    sim.schedule_after(SimTime{}, [&] { log.push_back("handler"); });
  };
  medium.broadcast(a, make_test_packet());
  medium.broadcast(b, make_test_packet());
  EXPECT_EQ(sim.queue().size(), 2u);  // one event per broadcast
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(log, (std::vector<std::string>{"1:0", "2:0", "3:0", "0:1", "2:1",
                                           "3:1", "handler"}));
  // The skipped reception was still delivered by the channel.
  EXPECT_EQ(sim.metrics().channel.delivered(
                static_cast<int>(PacketKind::kQueryRequest)),
            8u);
}

// --- GPSR ----------------------------------------------------------------------

TEST(GpsrTest, DeliversAlongALine) {
  Simulator sim(6);
  StaticNet net(sim, lossless());
  std::vector<NodeId> chain;
  for (int i = 0; i <= 6; ++i) chain.push_back(net.add({i * 400.0, 0}));
  GpsrRouter gpsr(net.medium(), net.registry());
  bool delivered = false;
  std::uint64_t tx = 0;
  gpsr.send(chain.front(), {2400, 0}, chain.back(), make_test_packet(), &tx,
            [&](NodeId at) {
              delivered = true;
              EXPECT_EQ(at, chain.back());
            });
  sim.run_until(SimTime::from_sec(2));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.sink(chain.back()).received.size(), 1u);
  EXPECT_GE(tx, 6u);  // at least one hop per gap
  // Intermediate nodes never consume the packet.
  EXPECT_TRUE(net.sink(chain[3]).received.empty());
}

TEST(GpsrTest, PositionAddressedDeliversWithinRadius) {
  Simulator sim(6);
  StaticNet net(sim, lossless());
  const NodeId src = net.add({0, 0});
  net.add({450, 0});
  const NodeId near_dest = net.add({880, 0});
  GpsrRouter gpsr(net.medium(), net.registry());
  bool delivered = false;
  gpsr.send(src, {900, 0}, std::nullopt, make_test_packet(), nullptr,
            [&](NodeId at) {
              delivered = true;
              EXPECT_EQ(at, near_dest);
            },
            {}, /*delivery_radius=*/50.0);
  sim.run_until(SimTime::from_sec(2));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.sink(near_dest).received.size(), 1u);
}

TEST(GpsrTest, FailsWhenPartitioned) {
  Simulator sim(6);
  StaticNet net(sim, lossless());
  const NodeId src = net.add({0, 0});
  const NodeId dst = net.add({5000, 0});  // unreachable island
  GpsrRouter gpsr(net.medium(), net.registry());
  bool failed = false;
  gpsr.send(src, {5000, 0}, dst, make_test_packet(), nullptr, {},
            [&] { failed = true; });
  sim.run_until(SimTime::from_sec(5));
  EXPECT_TRUE(failed);
  EXPECT_GT(sim.metrics().gpsr_failures, 0u);
}

TEST(GpsrTest, PerimeterModeRoutesAroundAVoid) {
  // A "C" shape: greedy hits a local minimum at the tip and must recover via
  // perimeter mode around the gap.
  Simulator sim(7);
  StaticNet net(sim, lossless());
  //   src --- a --- tip   (gap)   dst
  //            \-- down1 -- down2 --/
  const NodeId src = net.add({0, 0});
  net.add({400, 0});
  net.add({800, 0});           // tip; dst at 2000 is 1200 away (out of range)
  net.add({800, -400});        // detour south
  net.add({1200, -400});
  net.add({1600, -400});
  net.add({1900, -100});
  const NodeId dst = net.add({2000, 0});
  GpsrRouter gpsr(net.medium(), net.registry());
  bool delivered = false;
  gpsr.send(src, {2000, 0}, dst, make_test_packet(), nullptr,
            [&](NodeId) { delivered = true; });
  sim.run_until(SimTime::from_sec(5));
  EXPECT_TRUE(delivered);
}

TEST(GpsrTest, EmptyDeliveryDiscFailsAtTheLocalMinimum) {
  // Twelve nodes on a ring of radius 300 m around D (integer offsets, so
  // every distance to D is exactly 300) leave D's 150 m disc empty. The
  // first ring node is a greedy local minimum whose 500 m range covers the
  // whole disc: the route fails there instead of circling the ring.
  Simulator sim(9);
  StaticNet net(sim, lossless());
  const Vec2 dest{1000, 1000};
  const NodeId src = net.add({1000, 500});
  const Vec2 ring[] = {{300, 0},     {240, 180},  {180, 240}, {0, 300},
                       {-180, 240},  {-240, 180}, {-300, 0},  {-240, -180},
                       {-180, -240}, {0, -300},   {180, -240}, {240, -180}};
  for (const Vec2 offset : ring) net.add(dest + offset);
  GpsrRouter gpsr(net.medium(), net.registry());
  int delivered = 0;
  int failed = 0;
  std::uint64_t tx = 0;
  gpsr.send(src, dest, std::nullopt, make_test_packet(), &tx,
            [&](NodeId) { ++delivered; }, [&] { ++failed; },
            /*delivery_radius=*/150.0);
  sim.run_until(SimTime::from_sec(5));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(tx, 1u);  // the greedy hop onto the ring
  const RunMetrics& m = sim.metrics();
  EXPECT_EQ(m.gpsr_perimeter_hops, 0u);
  EXPECT_EQ(m.gpsr_fail_empty_disc, 1u);
  EXPECT_EQ(m.gpsr_failures, 1u);
}

TEST(GpsrTest, PositionAddressedPerimeterRoutesAroundAVoid) {
  // D = (1000, 0) with a 150 m disc. The tip is a greedy local minimum
  // 370 m from D: 370 + 150 is just over the 500 m range, so the disc is
  // not covered (the node in it is 515 m from the tip) and the empty-disc
  // rule must not fire. Perimeter mode carries the packet over the detour
  // north of the gap; greedy takes over once closer than the tip.
  Simulator sim(7);
  StaticNet net(sim, lossless());
  const NodeId src = net.add({230, 0});
  net.add({630, 0});     // tip: the greedy local minimum
  net.add({750, 420});   // detour, 489 m from D
  net.add({1100, 350});  // 364 m from D: back to greedy
  const NodeId in_disc = net.add({1145, 0});
  GpsrRouter gpsr(net.medium(), net.registry());
  int delivered = 0;
  int failed = 0;
  gpsr.send(src, {1000, 0}, std::nullopt, make_test_packet(), nullptr,
            [&](NodeId at) {
              ++delivered;
              EXPECT_EQ(at, in_disc);
            },
            [&] { ++failed; }, /*delivery_radius=*/150.0);
  sim.run_until(SimTime::from_sec(5));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(sim.metrics().gpsr_perimeter_hops, 2u);
  EXPECT_EQ(net.sink(in_disc).received.size(), 1u);
}

TEST(GpsrTest, FaceLoopEndsAfterOneTourOfTheFace) {
  // A hexagon of 400 m sides (non-adjacent corners are 693 m apart, so the
  // ring is the whole graph) and a target node 1600 m beyond its nearest
  // corner. The source is that corner, a greedy local minimum; the
  // perimeter walk tours the six-edge face and fails when it is about to
  // take its first edge again, not at the 64-hop cap.
  Simulator sim(10);
  StaticNet net(sim, lossless());
  const Vec2 center{1000, 1000};
  std::vector<NodeId> ring;
  for (int k = 0; k < 6; ++k) {
    const double a = k * std::numbers::pi / 3.0;
    ring.push_back(
        net.add(center + Vec2{400 * std::cos(a), 400 * std::sin(a)}));
  }
  const NodeId dst = net.add({3000, 1000});
  GpsrRouter gpsr(net.medium(), net.registry());
  int delivered = 0;
  int failed = 0;
  std::uint64_t tx = 0;
  gpsr.send(ring[0], net.registry().position(dst), dst, make_test_packet(),
            &tx, [&](NodeId) { ++delivered; }, [&] { ++failed; });
  sim.run_until(SimTime::from_sec(5));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_GT(tx, 0u);
  EXPECT_LE(tx, ring.size());  // no more hops than the face has edges
  const RunMetrics& m = sim.metrics();
  EXPECT_EQ(m.gpsr_fail_face_loop, 1u);
  EXPECT_EQ(m.gpsr_perimeter_hops, tx);
  EXPECT_EQ(m.gpsr_failures, 1u);
}

TEST(GpsrTest, EmptyDiscDropsPassABruteForceOracle) {
  // The paper's density (500 vehicles on 2 km x 2 km), placed on a
  // Manhattan grid of roads 500 m apart, so block interiors hold empty
  // discs. One position-addressed send at a
  // time toward every point of a 100 m lattice, with the 150 m center
  // radius: every route that ends on the empty-disc rule must have had no
  // node at all within that radius of its destination.
  Simulator sim(31);
  StaticNet net(sim, lossless());
  Rng rng(31);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 500; ++i) {
    const double road = 500.0 * static_cast<double>(rng.uniform_u64(5));
    const double along = rng.uniform(0.0, 2000.0);
    nodes.push_back(
        net.add(i % 2 == 0 ? Vec2{along, road} : Vec2{road, along}));
  }
  GpsrRouter gpsr(net.medium(), net.registry());
  constexpr double kRadius = 150.0;
  int drops = 0;
  int delivered = 0;
  for (int gx = 0; gx <= 20; ++gx) {
    for (int gy = 0; gy <= 20; ++gy) {
      const Vec2 dest{gx * 100.0, gy * 100.0};
      const NodeId src = nodes[rng.uniform_u64(nodes.size())];
      const std::uint64_t before = sim.metrics().gpsr_fail_empty_disc;
      int settled = 0;
      gpsr.send(src, dest, std::nullopt, make_test_packet(), nullptr,
                [&](NodeId) {
                  ++settled;
                  ++delivered;
                },
                [&] { ++settled; }, kRadius);
      sim.run_until(sim.now() + SimTime::from_sec(5));
      ASSERT_EQ(settled, 1);
      if (sim.metrics().gpsr_fail_empty_disc == before) continue;
      ++drops;
      for (std::size_t i = 0; i < net.registry().count(); ++i) {
        const Vec2 p = net.registry().position(NodeId{i});
        EXPECT_GT(distance(p, dest), kRadius)
            << "node " << i << " lies in the disc of (" << dest.x << ", "
            << dest.y << ")";
      }
    }
  }
  // Both outcomes occur, so the oracle is not vacuous.
  EXPECT_GT(drops, 0);
  EXPECT_GT(delivered, 0);
}

// --- Geocast ----------------------------------------------------------------------

TEST(GeocastTest, BoxFloodReachesEveryNodeInRegionOnce) {
  Simulator sim(8);
  StaticNet net(sim, lossless());
  std::vector<NodeId> inside;
  for (int i = 0; i < 5; ++i) {
    inside.push_back(net.add({100.0 + 150.0 * i, 100}));
  }
  const NodeId outside = net.add({2000, 2000});
  const NodeId origin = inside[0];
  GeocastService geo(net.medium(), net.registry());
  std::uint64_t tx = 0;
  geo.flood(origin, make_test_packet(),
            GeocastRegion::from_box(Aabb{{0, 0}, {1000, 1000}}), &tx);
  sim.run_until(SimTime::from_sec(2));
  for (std::size_t i = 1; i < inside.size(); ++i) {
    EXPECT_EQ(net.sink(inside[i]).received.size(), 1u) << i;
  }
  EXPECT_TRUE(net.sink(outside).received.empty());
  EXPECT_GE(tx, 1u);
}

TEST(GeocastTest, CorridorFloodStaysInCorridor) {
  Simulator sim(8);
  StaticNet net(sim, lossless());
  const NodeId origin = net.add({0, 0});
  const NodeId on_road1 = net.add({400, 10});
  const NodeId on_road2 = net.add({800, -10});
  const NodeId off_road = net.add({400, 300});
  const NodeId behind = net.add({-400, 0});
  GeocastService geo(net.medium(), net.registry());
  geo.flood(origin, make_test_packet(),
            GeocastRegion::corridor({0, 0}, {1, 0}, 50.0, 1200.0, 100.0));
  sim.run_until(SimTime::from_sec(2));
  EXPECT_EQ(net.sink(on_road1).received.size(), 1u);
  EXPECT_EQ(net.sink(on_road2).received.size(), 1u);
  EXPECT_TRUE(net.sink(off_road).received.empty());
  EXPECT_TRUE(net.sink(behind).received.empty());
}

TEST(GeocastTest, FloodTerminatesUnderLoss) {
  Simulator sim(9);
  RadioConfig cfg;
  cfg.base_loss = 0.3;
  StaticNet net(sim, cfg);
  for (int i = 0; i < 40; ++i) {
    net.add({(i % 8) * 120.0, (i / 8) * 120.0});
  }
  GeocastService geo(net.medium(), net.registry());
  std::uint64_t tx = 0;
  geo.flood(NodeId{std::size_t{0}}, make_test_packet(),
            GeocastRegion::from_box(Aabb{{0, 0}, {1000, 1000}}), &tx);
  sim.run_until(SimTime::from_sec(10));
  EXPECT_TRUE(sim.queue().empty());
  EXPECT_LE(tx, 256u);  // respects the budget
}

TEST(GeocastTest, NearReceiverSkipsItsRebroadcastFarOneRelays) {
  Simulator sim(8);
  StaticNet net(sim, lossless());
  const NodeId origin = net.add({0, 0});
  const NodeId near = net.add({100, 0});
  const NodeId far = net.add({450, 0});
  GeocastService geo(net.medium(), net.registry());
  std::uint64_t tx = 0;
  geo.flood(origin, make_test_packet(),
            GeocastRegion::from_box(Aabb{{-1000, -1000}, {1000, 1000}}), &tx);
  sim.run_until(SimTime::from_sec(2));
  EXPECT_EQ(net.sink(near).received.size(), 1u);
  EXPECT_EQ(net.sink(far).received.size(), 1u);
  // The origin and the 450 m receiver transmit; the 100 m one, covered by
  // the origin's own transmission, stays silent.
  EXPECT_EQ(tx, 2u);
  EXPECT_EQ(sim.metrics().rebroadcasts_suppressed, 1u);
  EXPECT_EQ(sim.metrics().radio_broadcasts, 2u);
}

TEST(GeocastTest, NearCopyHeardAfterAFarOneStillSuppresses) {
  // Both receivers first hear the origin from beyond the covered radius
  // (350 m and 450 m), so each arms a rebroadcast. They sit 100 m apart:
  // whichever timer fires first transmits, and the other then hears that
  // near copy before its own timer fires and stays silent. The wide jitter
  // puts the two timers further apart than one hop's delay (timers inside
  // one hop of each other would both fire before either copy lands).
  Simulator sim(8);
  StaticNet net(sim, lossless());
  const NodeId origin = net.add({0, 0});
  const NodeId a = net.add({350, 0});
  const NodeId b = net.add({450, 0});
  GeocastConfig cfg;
  cfg.rebroadcast_delay_ms = 1000.0;
  GeocastService geo(net.medium(), net.registry(), cfg);
  std::uint64_t tx = 0;
  geo.flood(origin, make_test_packet(),
            GeocastRegion::from_box(Aabb{{-1000, -1000}, {1000, 1000}}), &tx);
  sim.run_until(SimTime::from_sec(5));
  ASSERT_EQ(net.sink(a).received.size(), 1u);
  ASSERT_EQ(net.sink(b).received.size(), 1u);
  EXPECT_EQ(net.sink(a).received[0].from, origin);
  EXPECT_EQ(net.sink(b).received[0].from, origin);
  EXPECT_EQ(tx, 2u);
  EXPECT_EQ(sim.metrics().rebroadcasts_suppressed, 1u);
}

TEST(GeocastTest, ChainBeyondTheCoveredRadiusReachesItsEnd) {
  // Hops of 0.7 x range: no node ever hears a transmitter inside the
  // covered radius, so every node relays and the flood reaches the end.
  Simulator sim(8);
  StaticNet net(sim, lossless());
  const double spacing = 0.7 * lossless().range_m;
  std::vector<NodeId> chain;
  for (int i = 0; i < 8; ++i) chain.push_back(net.add({spacing * i, 0}));
  GeocastService geo(net.medium(), net.registry());
  std::uint64_t tx = 0;
  geo.flood(chain.front(), make_test_packet(),
            GeocastRegion::from_box(Aabb{{-100, -100}, {spacing * 8, 100}}),
            &tx);
  sim.run_until(SimTime::from_sec(2));
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_EQ(net.sink(chain[i]).received.size(), 1u) << i;
  }
  EXPECT_EQ(tx, chain.size());
  EXPECT_EQ(sim.metrics().rebroadcasts_suppressed, 0u);
}

// --- Wired -------------------------------------------------------------------------

TEST(WiredTest, DirectLinkDelivery) {
  Simulator sim(10);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({1000, 0});
  WiredNetwork wired(sim, net.registry());
  wired.connect(a, b);
  EXPECT_TRUE(wired.send(a, b, make_test_packet(5)));
  sim.run_until(SimTime::from_sec(1));
  ASSERT_EQ(net.sink(b).received.size(), 1u);
  EXPECT_EQ(payload_as<TestPayload>(net.sink(b).received[0].packet).value, 5);
  EXPECT_EQ(sim.metrics().wired_messages, 1u);
}

TEST(WiredTest, MultiHopRouting) {
  Simulator sim(10);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({1, 0});
  const NodeId c = net.add({2, 0});
  const NodeId d = net.add({3, 0});
  WiredNetwork wired(sim, net.registry());
  wired.connect(a, b);
  wired.connect(b, c);
  wired.connect(c, d);
  EXPECT_EQ(wired.hop_count(a, d), 3);
  std::uint64_t tx = 0;
  EXPECT_TRUE(wired.send(a, d, make_test_packet(), &tx));
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(net.sink(d).received.size(), 1u);
  EXPECT_EQ(tx, 3u);
}

TEST(WiredTest, NoPathReturnsFalse) {
  Simulator sim(10);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({1, 0});
  WiredNetwork wired(sim, net.registry());
  EXPECT_FALSE(wired.send(a, b, make_test_packet()));
  EXPECT_EQ(wired.hop_count(a, b), -1);
  EXPECT_EQ(wired.hop_count(a, a), 0);
}

TEST(WiredTest, ConnectIsIdempotent) {
  Simulator sim(10);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({1, 0});
  WiredNetwork wired(sim, net.registry());
  wired.connect(a, b);
  wired.connect(a, b);
  wired.connect(b, a);
  EXPECT_EQ(wired.links_of(a).size(), 1u);
  EXPECT_EQ(wired.links_of(b).size(), 1u);
}

// --- Beacons -------------------------------------------------------------------

TEST(BeaconTest, NeighborsLearnedWithinOneInterval) {
  Simulator sim(20);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({300, 0});
  net.add({900, 0});  // out of range of a
  BeaconConfig cfg;
  cfg.enabled = true;
  cfg.interval_sec = 1.0;
  cfg.timeout_sec = 3.0;
  BeaconService beacons(net.medium(), net.registry(), cfg);
  sim.run_until(SimTime::from_sec(1.5));
  std::vector<BeaconService::Neighbor> out;
  beacons.neighbors_of(a, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, b);
  EXPECT_EQ(out[0].heard_pos, (Vec2{300, 0}));
  EXPECT_GT(beacons.beacons_sent(), 0u);
}

TEST(BeaconTest, StaleNeighborsExpire) {
  Simulator sim(21);
  NodeRegistry reg;
  Vec2 b_pos{300, 0};
  std::vector<std::unique_ptr<CaptureSink>> sinks;
  const NodeId a = reg.add_node(Vec2{0, 0});
  const NodeId b = reg.add_node(b_pos);
  RadioMedium medium(sim, reg, lossless());
  BeaconConfig cfg;
  cfg.enabled = true;
  cfg.interval_sec = 1.0;
  cfg.timeout_sec = 2.5;
  BeaconService beacons(medium, reg, cfg);
  sim.run_until(SimTime::from_sec(2));
  std::vector<BeaconService::Neighbor> out;
  beacons.neighbors_of(a, &out);
  EXPECT_FALSE(out.empty());
  // b drives out of range; after the timeout its entry must be gone.
  reg.set_position(b, Vec2{5000, 0});
  sim.run_until(SimTime::from_sec(6));
  out.clear();
  beacons.neighbors_of(a, &out);
  EXPECT_TRUE(out.empty());
  (void)b;
}

TEST(BeaconTest, GpsrRoutesOverBeaconTables) {
  Simulator sim(22);
  StaticNet net(sim, lossless());
  std::vector<NodeId> chain;
  for (int i = 0; i <= 5; ++i) chain.push_back(net.add({i * 400.0, 0}));
  BeaconConfig cfg;
  cfg.enabled = true;
  BeaconService beacons(net.medium(), net.registry(), cfg);
  GpsrRouter gpsr(net.medium(), net.registry());
  gpsr.set_beacons(&beacons);
  // Let one beacon round populate the tables first.
  bool delivered = false;
  sim.run_until(SimTime::from_sec(2));
  sim.schedule_after(SimTime::from_us(1), [&] {
    gpsr.send(chain.front(), {2000, 0}, chain.back(), make_test_packet(),
              nullptr, [&](NodeId) { delivered = true; });
  });
  sim.run_until(SimTime::from_sec(5));
  EXPECT_TRUE(delivered);
}

// Parameterized: GPSR delivery rate on random dense placements is high.
class GpsrDensitySweep : public ::testing::TestWithParam<int> {};

TEST_P(GpsrDensitySweep, DeliversOnConnectedRandomPlacements) {
  Simulator sim(100 + static_cast<std::uint64_t>(GetParam()));
  StaticNet net(sim, lossless());
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = GetParam();
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(net.add(
        {rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)}));
  }
  GpsrRouter gpsr(net.medium(), net.registry());
  int delivered = 0, failed = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const NodeId src = nodes[rng.uniform_u64(static_cast<std::uint64_t>(n))];
    const NodeId dst = nodes[rng.uniform_u64(static_cast<std::uint64_t>(n))];
    gpsr.send(src, net.registry().position(dst), dst, make_test_packet(),
              nullptr, [&](NodeId) { ++delivered; }, [&] { ++failed; });
  }
  sim.run_until(SimTime::from_sec(30));
  EXPECT_EQ(delivered + failed, trials);
  // Dense lossless placements: the vast majority must deliver.
  EXPECT_GE(delivered, trials * 8 / 10);
}

INSTANTIATE_TEST_SUITE_P(Density, GpsrDensitySweep,
                         ::testing::Values(150, 300, 600));

// --- 1D geodesic oracle -------------------------------------------------------
//
// n nodes uniform on a segment of length L, lossless radio of range r. In 1D
// the unit-disk graph connects the leftmost node to the rightmost one exactly
// when no gap between neighbors exceeds r, and greedy forwarding to the
// neighbor nearest the destination (the farthest one ahead) is a geodesic.
// So GPSR must deliver exactly when a BFS connects the pair, in exactly the
// BFS hop count, and the connected fraction over many placements must match
// the closed form of Knight et al., "Counting Geodesic Paths in 1D VANETs"
// (arXiv 1610.01630):
//   P(connected) = sum_{k=0}^{n-1} (-1)^k C(n-1, k) max(0, 1 - k r / L)^n.

struct Line1d {
  int n;
  double length_m;
};

void PrintTo(const Line1d& line, std::ostream* os) {
  *os << "n " << line.n << ", L " << line.length_m << " m";
}

// The closed form above.
double connected_probability(int n, double range_m, double length_m) {
  double sum = 0.0;
  double binom = 1.0;  // C(n-1, k)
  for (int k = 0; k < n; ++k) {
    const double gap = 1.0 - k * range_m / length_m;
    if (gap <= 0.0) break;
    sum += (k % 2 == 0 ? 1.0 : -1.0) * binom * std::pow(gap, n);
    binom = binom * (n - 1 - k) / (k + 1);
  }
  return sum;
}

// Hops of a shortest path from nodes[from] to nodes[to] in the unit-disk
// graph over `xs` (distance <= range_m), or -1 when they are disconnected.
int bfs_hops(const std::vector<double>& xs, std::size_t from, std::size_t to,
             double range_m) {
  std::vector<int> hops(xs.size(), -1);
  std::vector<std::size_t> frontier{from};
  hops[from] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::size_t u = frontier[head];
    for (std::size_t v = 0; v < xs.size(); ++v) {
      if (hops[v] < 0 && std::abs(xs[v] - xs[u]) <= range_m) {
        hops[v] = hops[u] + 1;
        frontier.push_back(v);
      }
    }
  }
  return hops[to];
}

class GpsrLineOracle : public ::testing::TestWithParam<Line1d> {};

TEST_P(GpsrLineOracle, DeliversExactlyOnBfsGeodesics) {
  const Line1d line = GetParam();
  const RadioConfig radio = lossless();
  constexpr int kSeeds = 200;
  int connected = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Simulator sim(static_cast<std::uint64_t>(seed));
    StaticNet net(sim, radio);
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<double> xs;
    for (int i = 0; i < line.n; ++i) {
      xs.push_back(rng.uniform(0.0, line.length_m));
      net.add({xs.back(), 0.0});
    }
    const auto left = static_cast<std::size_t>(
        std::min_element(xs.begin(), xs.end()) - xs.begin());
    const auto right = static_cast<std::size_t>(
        std::max_element(xs.begin(), xs.end()) - xs.begin());
    const int expected_hops = bfs_hops(xs, left, right, radio.range_m);
    connected += expected_hops >= 0 ? 1 : 0;

    GpsrRouter gpsr(net.medium(), net.registry());
    const NodeId dst{right};
    std::uint64_t tx = 0;
    int delivered = 0, failed = 0;
    gpsr.send(NodeId{left}, {xs[right], 0.0}, dst, make_test_packet(), &tx,
              [&](NodeId at) {
                ++delivered;
                EXPECT_EQ(at, dst);
              },
              [&] { ++failed; });
    sim.run_until(SimTime::from_sec(10));
    ASSERT_EQ(delivered + failed, 1) << "seed " << seed;
    EXPECT_EQ(delivered == 1, expected_hops >= 0) << "seed " << seed;
    if (delivered == 1) {
      EXPECT_EQ(tx, static_cast<std::uint64_t>(expected_hops))
          << "seed " << seed;
    }
  }
  // The connected fraction within 4 binomial sigma of the closed form.
  const double p = connected_probability(line.n, radio.range_m, line.length_m);
  const double sigma = std::sqrt(p * (1.0 - p) / kSeeds);
  EXPECT_NEAR(static_cast<double>(connected) / kSeeds, p, 4.0 * sigma)
      << "n " << line.n << ", L " << line.length_m << " m";
}

INSTANTIATE_TEST_SUITE_P(
    Knight1d, GpsrLineOracle,
    ::testing::Values(Line1d{10, 2000.0}, Line1d{30, 4100.0},
                      Line1d{100, 10200.0}),
    [](const ::testing::TestParamInfo<Line1d>& param) {
      return "n" + std::to_string(param.param.n) + "_L" +
             std::to_string(static_cast<int>(param.param.length_m));
    });

}  // namespace
}  // namespace hlsrg
