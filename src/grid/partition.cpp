#include "grid/partition.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hlsrg {

bool Partition::is_selected_boundary(RoadId road) const {
  if (!road.valid()) return false;
  auto match = [road](const BoundaryLine& l) { return l.road == road; };
  return std::any_of(x_lines.begin(), x_lines.end(), match) ||
         std::any_of(y_lines.begin(), y_lines.end(), match);
}

namespace {

// Greedy single-axis selection (the paper's step 1+2: take main arteries,
// then reject/add roads until grids are ~target sized).
std::vector<BoundaryLine> select_axis(const RoadNetwork& net,
                                      Orientation orient, double axis_lo,
                                      double axis_hi,
                                      const PartitionConfig& cfg) {
  // Candidates: roads of this orientation spanning the map, ascending coord.
  std::vector<BoundaryLine> candidates;
  for (RoadId rid : net.spanning_roads(orient)) {
    const Road& r = net.road(rid);
    candidates.push_back(
        {r.coord, rid, r.cls == RoadClass::kMainArtery});
  }

  std::vector<BoundaryLine> chosen;
  // The map edge is always a boundary; if a candidate sits on the edge, use
  // it (it carries a real road id), otherwise synthesize an edge line.
  constexpr double kEdgeTol = 1.0;
  auto edge_line = [&](double coord) {
    for (const BoundaryLine& c : candidates) {
      if (std::abs(c.coord - coord) <= kEdgeTol) return c;
    }
    return BoundaryLine{coord, RoadId{}, false};
  };
  chosen.push_back(edge_line(axis_lo));

  while (chosen.back().coord + kPartitionMaxFrac * cfg.target_size <
         axis_hi - kEdgeTol) {
    const double last = chosen.back().coord;
    const double ideal = last + cfg.target_size;
    const double win_lo = last + kPartitionMinFrac * cfg.target_size;
    const double win_hi = last + kPartitionMaxFrac * cfg.target_size;

    const BoundaryLine* best = nullptr;
    auto consider = [&](const BoundaryLine& c, bool arteries_only) {
      if (c.coord < win_lo || c.coord > win_hi) return;
      if (arteries_only != c.is_artery) return;
      if (c.coord > axis_hi - kEdgeTol) return;  // reserved for the edge
      if (best == nullptr ||
          std::abs(c.coord - ideal) < std::abs(best->coord - ideal)) {
        best = &c;
      }
    };
    // Arteries first (the paper's priority); normal roads only if none fits.
    for (const BoundaryLine& c : candidates) consider(c, /*arteries_only=*/true);
    if (best == nullptr) {
      for (const BoundaryLine& c : candidates) consider(c, false);
    }
    if (best == nullptr) {
      // No road in the window at all (degenerate map): cut at the ideal
      // coordinate with a synthetic line so the hierarchy stays well formed.
      chosen.push_back({std::min(ideal, axis_hi), RoadId{}, false});
    } else {
      chosen.push_back(*best);
    }
  }
  chosen.push_back(edge_line(axis_hi));

  // Guard the invariants the hierarchy depends on.
  HLSRG_CHECK(chosen.size() >= 2);
  for (std::size_t i = 0; i + 1 < chosen.size(); ++i) {
    HLSRG_CHECK_MSG(chosen[i].coord < chosen[i + 1].coord,
                    "boundary lines must be strictly increasing");
  }
  return chosen;
}

}  // namespace

Partition build_partition(const RoadNetwork& net, const PartitionConfig& cfg) {
  HLSRG_CHECK(cfg.target_size > 0.0);
  const Aabb box = net.bounds();
  Partition p;
  p.x_lines = select_axis(net, Orientation::kVertical, box.lo.x, box.hi.x, cfg);
  p.y_lines =
      select_axis(net, Orientation::kHorizontal, box.lo.y, box.hi.y, cfg);
  return p;
}

}  // namespace hlsrg
