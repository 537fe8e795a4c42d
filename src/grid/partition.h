// Road-adapted grid partition (paper section 2.1.1).
//
// The partition chooses a set of boundary roads per axis so that grid cells
// are roughly `target_size` on a side, preferring main arteries and falling
// back to ("promoting") normal roads where arteries are too sparse. Because
// boundaries are roads, grid edges never cut through buildings — the property
// the paper credits for better delivery — and vehicles on arteries drive
// *along* boundaries instead of across them, which is what lets HLSRG
// suppress their updates.
#pragma once

#include <vector>

#include "roadnet/road_network.h"

namespace hlsrg {

struct PartitionConfig {
  // Desired L1 grid edge length; the paper uses 500 m = one radio range.
  double target_size = 500.0;
};

// A boundary is accepted when its gap from the previous boundary is within
// [kPartitionMinFrac, kPartitionMaxFrac] * target_size. Arteries inside the
// window win over normal roads; the window keeps grids "about 500 m x
// 500 m".
inline constexpr double kPartitionMinFrac = 0.6;
inline constexpr double kPartitionMaxFrac = 1.4;

// One selected boundary line.
struct BoundaryLine {
  double coord = 0.0;
  RoadId road;          // invalid for synthesized map-edge boundaries
  bool is_artery = false;
};

// The partition result: boundary lines per axis, sorted ascending. Lines
// always include the map edges, so `x_lines.size() - 1` is the L1 column
// count.
struct Partition {
  std::vector<BoundaryLine> x_lines;  // vertical boundaries (x = coord)
  std::vector<BoundaryLine> y_lines;  // horizontal boundaries (y = coord)

  [[nodiscard]] int cols() const { return static_cast<int>(x_lines.size()) - 1; }
  [[nodiscard]] int rows() const { return static_cast<int>(y_lines.size()) - 1; }

  // True if `road` was selected as a boundary (a "selected main artery" when
  // its class is artery). Vehicles are class 1 only on selected arteries.
  [[nodiscard]] bool is_selected_boundary(RoadId road) const;
};

// Runs the area-partition procedure on `net`.
[[nodiscard]] Partition build_partition(const RoadNetwork& net,
                                        const PartitionConfig& cfg = {});

}  // namespace hlsrg
