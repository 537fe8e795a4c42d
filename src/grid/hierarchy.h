// Three-level grid hierarchy over a road-adapted partition (paper 2.1.2).
//
// Level-1 grids are the partition cells. Four L1 grids (2x2) form an L2 grid
// and four L2 grids form an L3 grid. Each L1 grid's center is the
// intersection nearest its geometric center (vehicles pause there at red
// lights); each L2/L3 center is the intersection shared by its four children
// — an RSU site. Maps whose cell counts are not multiples of 4 get truncated
// edge groups (ceil division), which the paper's figures implicitly assume
// away but real maps need.
#pragma once

#include <vector>

#include "geom/aabb.h"
#include "grid/partition.h"
#include "roadnet/road_network.h"
#include "util/axis_index.h"
#include "util/tagged_id.h"

namespace hlsrg {

// Grid coordinate within one level.
struct GridCoord {
  int col = 0;
  int row = 0;
  friend constexpr bool operator==(GridCoord, GridCoord) = default;
};

// Levels are 1-based to match the paper's terminology.
enum class GridLevel : int { kL1 = 1, kL2 = 2, kL3 = 3 };

class GridHierarchy {
 public:
  GridHierarchy(const RoadNetwork& net, Partition partition);

  [[nodiscard]] const Partition& partition() const { return partition_; }

  // --- per-level shape ----------------------------------------------------
  [[nodiscard]] int cols(GridLevel level) const;
  [[nodiscard]] int rows(GridLevel level) const;
  [[nodiscard]] int cell_count(GridLevel level) const {
    return cols(level) * rows(level);
  }

  // --- coordinate mapping -------------------------------------------------
  // L1 coordinate containing p, in O(1): one AxisIndex lookup per axis over
  // the boundary lines. Positions outside the map clamp to the edge cells.
  // Points exactly on a boundary line belong to the cell on the greater side
  // (half-open cells), so adjacent cells tile exactly.
  [[nodiscard]] GridCoord l1_at(Vec2 p) const {
    return {x_axis_.index(p.x), y_axis_.index(p.y)};
  }
  [[nodiscard]] GridCoord coord_at(Vec2 p, GridLevel level) const;

  // Parent coordinate of an L1 cell at the given level (identity for kL1).
  [[nodiscard]] static GridCoord parent(GridCoord l1, GridLevel level);

  // Dense id within a level: row * cols + col. Ids are only comparable
  // within the same level.
  [[nodiscard]] GridId id_of(GridCoord c, GridLevel level) const;
  [[nodiscard]] GridCoord coord_of(GridId id, GridLevel level) const;

  // --- geometry -----------------------------------------------------------
  [[nodiscard]] Aabb cell_box(GridCoord c, GridLevel level) const;

  // The grid-center intersection for a cell.
  [[nodiscard]] IntersectionId center(GridCoord c, GridLevel level) const;
  [[nodiscard]] Vec2 center_pos(GridCoord c, GridLevel level) const;

  // --- movement events ----------------------------------------------------
  // Highest-level boundary crossed when moving from `before` to `after`:
  // 0 = same L1 cell, otherwise 1..3.
  [[nodiscard]] int crossing_level(Vec2 before, Vec2 after) const;

  // True if `road` is a selected boundary artery — the roads whose vehicles
  // are "class 1" in the update rules.
  [[nodiscard]] bool on_selected_artery(RoadId road) const;

 private:
  [[nodiscard]] static int shrink(int n, GridLevel level);

  Partition partition_;
  // The boundary-line coordinates of partition_, per axis.
  AxisIndex x_axis_;
  AxisIndex y_axis_;
  int l1_cols_ = 0;
  int l1_rows_ = 0;
  // Precomputed center intersections, dense per level.
  std::vector<IntersectionId> l1_centers_;
  std::vector<IntersectionId> l2_centers_;
  std::vector<IntersectionId> l3_centers_;
  const RoadNetwork* net_;
  // Road ids selected as artery boundaries, sorted for binary search.
  std::vector<RoadId> selected_arteries_;
};

}  // namespace hlsrg
