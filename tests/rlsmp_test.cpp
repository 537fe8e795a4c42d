// Tests for the RLSMP baseline: cell geometry, cluster/LSC mapping, spiral
// order, and an end-to-end service run.
#include <gtest/gtest.h>

#include <set>

#include "harness/world.h"
#include "rlsmp/cell_grid.h"

namespace hlsrg {
namespace {

CellGrid default_grid() {
  // 2 km map, 500 m cells offset by 250 m, 3x3 clusters.
  return CellGrid(Aabb{{0, 0}, {2000, 2000}}, 500.0, 250.0, 3);
}

TEST(CellGridTest, ShapeWithOffset) {
  const CellGrid g = default_grid();
  // (2000 + 250) / 500 -> 5 columns.
  EXPECT_EQ(g.cols(), 5);
  EXPECT_EQ(g.rows(), 5);
  EXPECT_EQ(g.cluster_cols(), 2);
  EXPECT_EQ(g.cluster_rows(), 2);
}

TEST(CellGridTest, CellMappingRespectsOffset) {
  const CellGrid g = default_grid();
  // Cells start at -250: [-250,250) is column 0, [250,750) column 1...
  EXPECT_EQ(g.cell_at({0, 0}), (CellCoord{0, 0}));
  EXPECT_EQ(g.cell_at({251, 0}), (CellCoord{1, 0}));
  EXPECT_EQ(g.cell_at({500, 500}), (CellCoord{1, 1}));
  EXPECT_EQ(g.cell_at({1999, 1999}), (CellCoord{4, 4}));
}

TEST(CellGridTest, ArteriesRunThroughCellInteriors) {
  const CellGrid g = default_grid();
  // The 500 m artery lattice must not coincide with cell boundaries: a point
  // on an artery is strictly inside its cell box.
  for (double artery : {0.0, 500.0, 1000.0, 1500.0, 2000.0}) {
    const Vec2 p{artery, 123.0};
    const Aabb box = g.cell_box(g.cell_at(p));
    EXPECT_GT(p.x - box.lo.x, 100.0) << artery;
    EXPECT_GT(box.hi.x - p.x, 100.0) << artery;
  }
}

TEST(CellGridTest, CenterIsInsideBox) {
  const CellGrid g = default_grid();
  for (int c = 0; c < g.cols(); ++c) {
    for (int r = 0; r < g.rows(); ++r) {
      const CellCoord cc{c, r};
      EXPECT_TRUE(g.cell_box(cc).contains(g.cell_center(cc)));
    }
  }
}

TEST(CellGridTest, ClusterAndLscMapping) {
  const CellGrid g = default_grid();
  EXPECT_EQ(g.cluster_of({0, 0}), (ClusterCoord{0, 0}));
  EXPECT_EQ(g.cluster_of({2, 2}), (ClusterCoord{0, 0}));
  EXPECT_EQ(g.cluster_of({3, 1}), (ClusterCoord{1, 0}));
  // LSC of cluster (0,0) is its central cell (1,1).
  EXPECT_EQ(g.lsc_cell({0, 0}), (CellCoord{1, 1}));
  // Truncated edge cluster (1,1): central index clamps into the lattice.
  const CellCoord lsc = g.lsc_cell({1, 1});
  EXPECT_GE(lsc.col, 0);
  EXPECT_LT(lsc.col, g.cols());
}

TEST(CellGridTest, SpiralVisitsEveryClusterExactlyOnce) {
  const CellGrid g = default_grid();
  for (int c = 0; c < g.cluster_cols(); ++c) {
    for (int r = 0; r < g.cluster_rows(); ++r) {
      const auto order = g.spiral_order({c, r});
      EXPECT_EQ(order.size(),
                static_cast<std::size_t>(g.cluster_cols() * g.cluster_rows()));
      std::set<std::pair<int, int>> seen;
      for (const ClusterCoord& cc : order) {
        EXPECT_TRUE(seen.insert({cc.col, cc.row}).second);
        EXPECT_GE(cc.col, 0);
        EXPECT_LT(cc.col, g.cluster_cols());
        EXPECT_GE(cc.row, 0);
        EXPECT_LT(cc.row, g.cluster_rows());
      }
      EXPECT_EQ(order.front(), (ClusterCoord{c, r}));
    }
  }
}

TEST(CellGridTest, SpiralRingDistanceIsMonotone) {
  // On a larger cluster lattice the spiral must visit rings in order.
  const CellGrid g(Aabb{{0, 0}, {9000, 9000}}, 500.0, 250.0, 3);
  ASSERT_GE(g.cluster_cols(), 5);
  const ClusterCoord origin{3, 3};
  const auto order = g.spiral_order(origin);
  int prev_ring = 0;
  for (const ClusterCoord& c : order) {
    const int ring = std::max(std::abs(c.col - origin.col),
                              std::abs(c.row - origin.row));
    EXPECT_GE(ring, prev_ring);
    prev_ring = ring;
  }
}

// --- end-to-end -----------------------------------------------------------------

TEST(RlsmpServiceTest, EndToEndQueriesSucceed) {
  ScenarioConfig cfg = paper_scenario(400, 21);
  World world(cfg, Protocol::kRlsmp);
  const RunMetrics& m = world.run();
  EXPECT_EQ(m.queries_issued, 40u);
  EXPECT_EQ(m.queries_succeeded + m.queries_failed, m.queries_issued);
  // The baseline works, just not as well as HLSRG.
  EXPECT_GT(m.success_rate(), 0.4);
  EXPECT_GT(m.update_packets_originated, 0u);
  EXPECT_EQ(m.wired_messages, 0u);  // infrastructure-free
}

TEST(RlsmpServiceTest, UpdatesScaleWithCellCrossings) {
  // Halving the cell size roughly doubles the crossing rate.
  ScenarioConfig small = paper_scenario(200, 5);
  small.rlsmp.cell_size_m = 250.0;
  small.rlsmp.origin_offset_m = 125.0;
  ScenarioConfig big = paper_scenario(200, 5);

  World ws(small, Protocol::kRlsmp);
  World wb(big, Protocol::kRlsmp);
  const auto updates_small = ws.run().update_packets_originated;
  const auto updates_big = wb.run().update_packets_originated;
  EXPECT_GT(updates_small, updates_big);
}

TEST(RlsmpServiceTest, SpiralBatchingSharesHops) {
  // With batching, many simultaneous cache-miss queries ride shared spiral
  // packets: per-query transmissions fall as query volume rises. Compare a
  // burst of queries against sequential ones on the same world seed.
  // Poisson arrivals: the open-loop generator with uniform destinations.
  ScenarioConfig burst = paper_scenario(300, 45);
  burst.source_fraction = 0.0;
  burst.service.hotspot_fraction = 0.0;
  burst.service.open_loop_rate_per_sec = 3.0;  // dense window: batches form
  World wb(burst, Protocol::kRlsmp);
  const RunMetrics& mb = wb.run();
  ASSERT_GT(mb.queries_issued, 20u);
  const double per_query_burst =
      static_cast<double>(mb.query_transmissions) /
      static_cast<double>(mb.queries_issued);

  ScenarioConfig sparse = burst;
  sparse.service.open_loop_rate_per_sec = 0.2;  // one at a time: no batching
  World ws(sparse, Protocol::kRlsmp);
  const RunMetrics& ms = ws.run();
  ASSERT_GT(ms.queries_issued, 2u);
  const double per_query_sparse =
      static_cast<double>(ms.query_transmissions) /
      static_cast<double>(ms.queries_issued);

  EXPECT_LT(per_query_burst, per_query_sparse);
}

TEST(RlsmpServiceTest, DeterministicPerSeed) {
  ScenarioConfig cfg = paper_scenario(200, 33);
  World a(cfg, Protocol::kRlsmp);
  World b(cfg, Protocol::kRlsmp);
  a.run();
  b.run();
  EXPECT_EQ(a.metrics().update_packets_originated,
            b.metrics().update_packets_originated);
  EXPECT_EQ(a.metrics().queries_succeeded, b.metrics().queries_succeeded);
  EXPECT_EQ(a.metrics().query_transmissions, b.metrics().query_transmissions);
}

}  // namespace
}  // namespace hlsrg
