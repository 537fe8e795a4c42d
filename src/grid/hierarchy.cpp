#include "grid/hierarchy.h"

#include <algorithm>

#include "util/check.h"

namespace hlsrg {

namespace {

std::vector<double> coords(const std::vector<BoundaryLine>& lines) {
  std::vector<double> out;
  out.reserve(lines.size());
  for (const BoundaryLine& l : lines) out.push_back(l.coord);
  return out;
}

}  // namespace

GridHierarchy::GridHierarchy(const RoadNetwork& net, Partition partition)
    : partition_(std::move(partition)),
      x_axis_(coords(partition_.x_lines)),
      y_axis_(coords(partition_.y_lines)),
      net_(&net) {
  l1_cols_ = partition_.cols();
  l1_rows_ = partition_.rows();
  HLSRG_CHECK(l1_cols_ >= 1 && l1_rows_ >= 1);

  for (const auto* lines : {&partition_.x_lines, &partition_.y_lines}) {
    for (const BoundaryLine& l : *lines) {
      if (l.is_artery && l.road.valid()) selected_arteries_.push_back(l.road);
    }
  }
  std::sort(selected_arteries_.begin(), selected_arteries_.end());
  selected_arteries_.erase(
      std::unique(selected_arteries_.begin(), selected_arteries_.end()),
      selected_arteries_.end());

  // Precompute centers. L1: intersection nearest the cell's geometric
  // center. L2/L3: intersection nearest the corner shared by the cell's
  // children (for truncated edge cells, the nearest existing corner).
  l1_centers_.resize(static_cast<std::size_t>(l1_cols_) * l1_rows_);
  for (int row = 0; row < l1_rows_; ++row) {
    for (int col = 0; col < l1_cols_; ++col) {
      const Aabb box = cell_box({col, row}, GridLevel::kL1);
      l1_centers_[static_cast<std::size_t>(row) * l1_cols_ + col] =
          net.nearest_intersection(box.center());
    }
  }
  auto corner_center = [&](GridCoord c, int children_per_axis) {
    // Shared corner: boundary line index children_per_axis*coord + half.
    const int xi = std::min(children_per_axis * c.col + children_per_axis / 2,
                            l1_cols_);
    const int yi = std::min(children_per_axis * c.row + children_per_axis / 2,
                            l1_rows_);
    const Vec2 corner{partition_.x_lines[static_cast<std::size_t>(xi)].coord,
                      partition_.y_lines[static_cast<std::size_t>(yi)].coord};
    return net.nearest_intersection(corner);
  };
  l2_centers_.resize(static_cast<std::size_t>(cols(GridLevel::kL2)) *
                     rows(GridLevel::kL2));
  for (int row = 0; row < rows(GridLevel::kL2); ++row) {
    for (int col = 0; col < cols(GridLevel::kL2); ++col) {
      l2_centers_[static_cast<std::size_t>(row) * cols(GridLevel::kL2) + col] =
          corner_center({col, row}, 2);
    }
  }
  l3_centers_.resize(static_cast<std::size_t>(cols(GridLevel::kL3)) *
                     rows(GridLevel::kL3));
  for (int row = 0; row < rows(GridLevel::kL3); ++row) {
    for (int col = 0; col < cols(GridLevel::kL3); ++col) {
      l3_centers_[static_cast<std::size_t>(row) * cols(GridLevel::kL3) + col] =
          corner_center({col, row}, 4);
    }
  }
}

int GridHierarchy::shrink(int n, GridLevel level) {
  switch (level) {
    case GridLevel::kL1:
      return n;
    case GridLevel::kL2:
      return (n + 1) / 2;
    case GridLevel::kL3:
      return (n + 3) / 4;
  }
  HLSRG_CHECK(false);
  return 0;
}

int GridHierarchy::cols(GridLevel level) const { return shrink(l1_cols_, level); }
int GridHierarchy::rows(GridLevel level) const { return shrink(l1_rows_, level); }

GridCoord GridHierarchy::coord_at(Vec2 p, GridLevel level) const {
  return parent(l1_at(p), level);
}

GridCoord GridHierarchy::parent(GridCoord l1, GridLevel level) {
  switch (level) {
    case GridLevel::kL1:
      return l1;
    case GridLevel::kL2:
      return {l1.col / 2, l1.row / 2};
    case GridLevel::kL3:
      return {l1.col / 4, l1.row / 4};
  }
  HLSRG_CHECK(false);
  return {};
}

GridId GridHierarchy::id_of(GridCoord c, GridLevel level) const {
  HLSRG_CHECK(c.col >= 0 && c.col < cols(level));
  HLSRG_CHECK(c.row >= 0 && c.row < rows(level));
  return GridId{static_cast<std::uint32_t>(c.row * cols(level) + c.col)};
}

GridCoord GridHierarchy::coord_of(GridId id, GridLevel level) const {
  HLSRG_CHECK(id.valid());
  const int v = static_cast<int>(id.value());
  HLSRG_CHECK(v < cell_count(level));
  return {v % cols(level), v / cols(level)};
}

Aabb GridHierarchy::cell_box(GridCoord c, GridLevel level) const {
  const int step = level == GridLevel::kL1 ? 1 : level == GridLevel::kL2 ? 2 : 4;
  const int x0 = std::min(c.col * step, l1_cols_);
  const int x1 = std::min(x0 + step, l1_cols_);
  const int y0 = std::min(c.row * step, l1_rows_);
  const int y1 = std::min(y0 + step, l1_rows_);
  HLSRG_CHECK(x0 < x1 && y0 < y1);
  return {{partition_.x_lines[static_cast<std::size_t>(x0)].coord,
           partition_.y_lines[static_cast<std::size_t>(y0)].coord},
          {partition_.x_lines[static_cast<std::size_t>(x1)].coord,
           partition_.y_lines[static_cast<std::size_t>(y1)].coord}};
}

IntersectionId GridHierarchy::center(GridCoord c, GridLevel level) const {
  const std::size_t idx =
      static_cast<std::size_t>(c.row) * cols(level) + static_cast<std::size_t>(c.col);
  switch (level) {
    case GridLevel::kL1:
      return l1_centers_[idx];
    case GridLevel::kL2:
      return l2_centers_[idx];
    case GridLevel::kL3:
      return l3_centers_[idx];
  }
  HLSRG_CHECK(false);
  return {};
}

Vec2 GridHierarchy::center_pos(GridCoord c, GridLevel level) const {
  return net_->position(center(c, level));
}

int GridHierarchy::crossing_level(Vec2 before, Vec2 after) const {
  const GridCoord a = l1_at(before);
  const GridCoord b = l1_at(after);
  if (a == b) return 0;
  if (parent(a, GridLevel::kL3) != parent(b, GridLevel::kL3)) return 3;
  if (parent(a, GridLevel::kL2) != parent(b, GridLevel::kL2)) return 2;
  return 1;
}

bool GridHierarchy::on_selected_artery(RoadId road) const {
  return std::binary_search(selected_arteries_.begin(),
                            selected_arteries_.end(), road);
}

}  // namespace hlsrg
