// Tests for grid: the road-adapted partition and the three-level hierarchy.
#include <gtest/gtest.h>

#include <cmath>

#include "grid/hierarchy.h"
#include "grid/partition.h"
#include "roadnet/map_builder.h"
#include "sim/rng.h"

namespace hlsrg {
namespace {

RoadNetwork default_map(double size = 2000) {
  MapConfig cfg;
  cfg.size_m = size;
  return build_manhattan_map(cfg);
}

TEST(PartitionTest, SelectsArteriesAt500mOnDefaultMap) {
  const RoadNetwork net = default_map();
  const Partition p = build_partition(net);
  ASSERT_EQ(p.x_lines.size(), 5u);  // 0, 500, 1000, 1500, 2000
  ASSERT_EQ(p.y_lines.size(), 5u);
  for (std::size_t i = 0; i < p.x_lines.size(); ++i) {
    EXPECT_NEAR(p.x_lines[i].coord, 500.0 * static_cast<double>(i), 1e-9);
    EXPECT_TRUE(p.x_lines[i].is_artery);
    EXPECT_TRUE(p.x_lines[i].road.valid());
  }
  EXPECT_EQ(p.cols(), 4);
  EXPECT_EQ(p.rows(), 4);
}

TEST(PartitionTest, LinesStrictlyIncreasingAndCoverMap) {
  const RoadNetwork net = default_map();
  const Partition p = build_partition(net);
  const Aabb bounds = net.bounds();
  EXPECT_DOUBLE_EQ(p.x_lines.front().coord, bounds.lo.x);
  EXPECT_DOUBLE_EQ(p.x_lines.back().coord, bounds.hi.x);
  for (std::size_t i = 0; i + 1 < p.x_lines.size(); ++i) {
    EXPECT_LT(p.x_lines[i].coord, p.x_lines[i + 1].coord);
  }
}

TEST(PartitionTest, RejectsExcessArteriesWhenSpacingIsTight) {
  // Arteries every 250 m: the partition must skip every other one to keep
  // grids ~500 m.
  MapConfig cfg;
  cfg.size_m = 2000;
  cfg.artery_spacing = 250;
  cfg.minor_spacing = 250;
  const RoadNetwork net = build_manhattan_map(cfg);
  const Partition p = build_partition(net);
  for (std::size_t i = 0; i + 1 < p.x_lines.size(); ++i) {
    const double gap = p.x_lines[i + 1].coord - p.x_lines[i].coord;
    EXPECT_GE(gap, 0.6 * 500.0 - 1e-9);
    EXPECT_LE(gap, 1.4 * 500.0 + 1e-9);
  }
}

TEST(PartitionTest, PromotesNormalRoadsWhenArteriesAreSparse) {
  // Arteries every 1000 m: normal roads must be promoted to keep ~500 m
  // grids.
  MapConfig cfg;
  cfg.size_m = 2000;
  cfg.artery_spacing = 1000;
  cfg.minor_spacing = 250;
  const RoadNetwork net = build_manhattan_map(cfg);
  const Partition p = build_partition(net);
  bool promoted_normal = false;
  for (const BoundaryLine& l : p.x_lines) {
    if (!l.is_artery && l.road.valid()) promoted_normal = true;
  }
  EXPECT_TRUE(promoted_normal);
  for (std::size_t i = 0; i + 1 < p.x_lines.size(); ++i) {
    const double gap = p.x_lines[i + 1].coord - p.x_lines[i].coord;
    EXPECT_LE(gap, 1.4 * 500.0 + 1e-9);
  }
}

TEST(PartitionTest, ArteriesPreferredOverCloserNormalRoads) {
  const RoadNetwork net = default_map();  // arteries AND normals available
  const Partition p = build_partition(net);
  // On the default map every chosen interior line should be an artery.
  for (const BoundaryLine& l : p.x_lines) EXPECT_TRUE(l.is_artery);
  for (const BoundaryLine& l : p.y_lines) EXPECT_TRUE(l.is_artery);
}

TEST(PartitionTest, IsSelectedBoundary) {
  const RoadNetwork net = default_map();
  const Partition p = build_partition(net);
  EXPECT_TRUE(p.is_selected_boundary(p.x_lines[1].road));
  // A normal road is never selected on the default map.
  for (std::size_t i = 0; i < net.road_count(); ++i) {
    const RoadId rid{i};
    if (net.road(rid).cls == RoadClass::kNormal) {
      EXPECT_FALSE(p.is_selected_boundary(rid));
    }
  }
  EXPECT_FALSE(p.is_selected_boundary(RoadId{}));
}

// --- hierarchy -----------------------------------------------------------------

class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest() : net_(default_map()), h_(net_, build_partition(net_)) {}
  RoadNetwork net_;
  GridHierarchy h_;
};

TEST_F(HierarchyTest, LevelShapes) {
  EXPECT_EQ(h_.cols(GridLevel::kL1), 4);
  EXPECT_EQ(h_.rows(GridLevel::kL1), 4);
  EXPECT_EQ(h_.cols(GridLevel::kL2), 2);
  EXPECT_EQ(h_.rows(GridLevel::kL2), 2);
  EXPECT_EQ(h_.cols(GridLevel::kL3), 1);
  EXPECT_EQ(h_.rows(GridLevel::kL3), 1);
  EXPECT_EQ(h_.cell_count(GridLevel::kL1), 16);
}

TEST_F(HierarchyTest, PointMapping) {
  EXPECT_EQ(h_.l1_at({100, 100}), (GridCoord{0, 0}));
  EXPECT_EQ(h_.l1_at({600, 100}), (GridCoord{1, 0}));
  EXPECT_EQ(h_.l1_at({100, 1700}), (GridCoord{0, 3}));
  // Boundary points belong to the cell on the greater side (half-open).
  EXPECT_EQ(h_.l1_at({500, 100}), (GridCoord{1, 0}));
  // Outside clamps.
  EXPECT_EQ(h_.l1_at({-50, -50}), (GridCoord{0, 0}));
  EXPECT_EQ(h_.l1_at({5000, 5000}), (GridCoord{3, 3}));
}

TEST_F(HierarchyTest, ParentContainment) {
  for (int col = 0; col < 4; ++col) {
    for (int row = 0; row < 4; ++row) {
      const GridCoord l1{col, row};
      const GridCoord l2 = GridHierarchy::parent(l1, GridLevel::kL2);
      const GridCoord l3 = GridHierarchy::parent(l1, GridLevel::kL3);
      EXPECT_EQ(l2.col, col / 2);
      EXPECT_EQ(l2.row, row / 2);
      EXPECT_EQ(l3.col, col / 4);
      EXPECT_EQ(l3.row, row / 4);
      // The L1 box must lie inside its parents' boxes.
      const Aabb b1 = h_.cell_box(l1, GridLevel::kL1);
      const Aabb b2 = h_.cell_box(l2, GridLevel::kL2);
      const Aabb b3 = h_.cell_box(l3, GridLevel::kL3);
      EXPECT_TRUE(b2.contains_closed(b1.lo) && b2.contains_closed(b1.hi));
      EXPECT_TRUE(b3.contains_closed(b1.lo) && b3.contains_closed(b1.hi));
    }
  }
}

TEST_F(HierarchyTest, CellBoxesTileTheMap) {
  // Every probe point belongs to exactly the cell whose box contains it.
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const Vec2 p{rng.uniform(0.0, 1999.9), rng.uniform(0.0, 1999.9)};
    const GridCoord c = h_.l1_at(p);
    EXPECT_TRUE(h_.cell_box(c, GridLevel::kL1).contains(p))
        << p << " -> (" << c.col << "," << c.row << ")";
  }
}

TEST_F(HierarchyTest, IdRoundTrip) {
  for (int col = 0; col < 4; ++col) {
    for (int row = 0; row < 4; ++row) {
      const GridCoord c{col, row};
      const GridId id = h_.id_of(c, GridLevel::kL1);
      EXPECT_EQ(h_.coord_of(id, GridLevel::kL1), c);
    }
  }
}

TEST_F(HierarchyTest, L1CentersAreIntersectionsNearCellCenter) {
  for (int col = 0; col < 4; ++col) {
    for (int row = 0; row < 4; ++row) {
      const GridCoord c{col, row};
      const Vec2 center = h_.center_pos(c, GridLevel::kL1);
      const Aabb box = h_.cell_box(c, GridLevel::kL1);
      // Default map: nearest intersection to the cell center is the interior
      // normal-road crossing (at most ~177 m from the geometric center).
      EXPECT_LE(distance(center, box.center()), 250.0);
    }
  }
}

TEST_F(HierarchyTest, L2CentersAreSharedCorners) {
  // L2 (0,0) children are L1 (0..1, 0..1); shared corner is (500, 500).
  EXPECT_EQ(h_.center_pos({0, 0}, GridLevel::kL2), (Vec2{500, 500}));
  EXPECT_EQ(h_.center_pos({1, 1}, GridLevel::kL2), (Vec2{1500, 1500}));
}

TEST_F(HierarchyTest, L3CenterIsMapCenter) {
  EXPECT_EQ(h_.center_pos({0, 0}, GridLevel::kL3), (Vec2{1000, 1000}));
}

TEST_F(HierarchyTest, CrossingLevels) {
  // Same cell: no crossing.
  EXPECT_EQ(h_.crossing_level({100, 100}, {200, 100}), 0);
  // L1 boundary at x=250? No: boundaries are 500-lattice. x 400->600 crosses
  // x=500, an L2 boundary... L2 cells are 1000 m, so 400->600 stays in L2
  // (0,0): crossing level 1.
  EXPECT_EQ(h_.crossing_level({400, 100}, {600, 100}), 1);
  // Crossing x=1000 flips the L2 cell but not L3.
  EXPECT_EQ(h_.crossing_level({900, 100}, {1100, 100}), 2);
  // Everything is one L3 on a 2 km map; build a 4 km map for level 3.
  const RoadNetwork big = default_map(4000);
  const GridHierarchy h(big, build_partition(big));
  EXPECT_EQ(h.cols(GridLevel::kL3), 2);
  EXPECT_EQ(h.crossing_level({1900, 100}, {2100, 100}), 3);
}

TEST_F(HierarchyTest, SelectedArteryLookup) {
  const Partition& p = h_.partition();
  EXPECT_TRUE(h_.on_selected_artery(p.x_lines[2].road));
  EXPECT_FALSE(h_.on_selected_artery(RoadId{}));
}

// Parameterized sweep: hierarchy invariants across map shapes and the
// irregular generator.
struct GridParam {
  double size;
  double artery_spacing;
  bool irregular;
  std::uint64_t seed;
};

class GridSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(GridSweep, PartitionAndHierarchyInvariants) {
  const GridParam gp = GetParam();
  MapConfig cfg;
  cfg.size_m = gp.size;
  cfg.artery_spacing = gp.artery_spacing;
  cfg.irregular = gp.irregular;
  cfg.seed = gp.seed;
  const RoadNetwork net = build_manhattan_map(cfg);
  const Partition p = build_partition(net);
  const GridHierarchy h(net, p);

  // Boundary gaps within the configured window.
  PartitionConfig pc;
  for (const auto* lines : {&p.x_lines, &p.y_lines}) {
    for (std::size_t i = 0; i + 1 < lines->size(); ++i) {
      const double gap = (*lines)[i + 1].coord - (*lines)[i].coord;
      EXPECT_GT(gap, 0.0);
      EXPECT_LE(gap, kPartitionMaxFrac * pc.target_size + 1e-6);
    }
  }

  // Every random point maps into a valid cell at every level, and parents
  // are consistent.
  Rng rng(gp.seed + 1);
  for (int i = 0; i < 300; ++i) {
    const Vec2 pt{rng.uniform(0.0, gp.size), rng.uniform(0.0, gp.size)};
    const GridCoord c1 = h.l1_at(pt);
    EXPECT_GE(c1.col, 0);
    EXPECT_LT(c1.col, h.cols(GridLevel::kL1));
    EXPECT_GE(c1.row, 0);
    EXPECT_LT(c1.row, h.rows(GridLevel::kL1));
    EXPECT_EQ(h.coord_at(pt, GridLevel::kL2),
              GridHierarchy::parent(c1, GridLevel::kL2));
    EXPECT_EQ(h.coord_at(pt, GridLevel::kL3),
              GridHierarchy::parent(c1, GridLevel::kL3));
  }

  // Centers exist and are real intersections.
  for (GridLevel level : {GridLevel::kL1, GridLevel::kL2, GridLevel::kL3}) {
    for (int col = 0; col < h.cols(level); ++col) {
      for (int row = 0; row < h.rows(level); ++row) {
        const IntersectionId id = h.center({col, row}, level);
        EXPECT_TRUE(id.valid());
        EXPECT_LT(id.index(), net.intersection_count());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Maps, GridSweep,
    ::testing::Values(GridParam{2000, 500, false, 1},
                      GridParam{1000, 500, false, 1},
                      GridParam{500, 500, false, 1},
                      GridParam{4000, 500, false, 1},
                      GridParam{2000, 1000, false, 1},
                      GridParam{2000, 250, false, 1},
                      GridParam{2000, 500, true, 3},
                      GridParam{2000, 500, true, 17},
                      GridParam{4000, 500, true, 23}));

}  // namespace
}  // namespace hlsrg
