// Synthetic digital maps standing in for the paper's 2 km x 2 km Los Angeles
// map (see DESIGN.md, substitutions table).
//
// The regular builder produces a Manhattan lattice with main arteries every
// `artery_spacing` metres and normal roads between them — the structure the
// paper's Figure 2.1 shows and the property its evaluation relies on (arteries
// form an ~500 m lattice; ~10x the traffic drives on arteries).
//
// The irregular builder perturbs normal-road line positions and removes a
// fraction of normal edges (keeping the graph connected), so the partition's
// reject-artery / promote-normal-road logic is exercised by something less
// convenient than a perfect grid.
#pragma once

#include <cstdint>

#include "roadnet/road_network.h"

namespace hlsrg {

struct MapConfig {
  // Side length of the square map, metres.
  double size_m = 2000.0;
  // Spacing between main-artery lines. The paper's grids are 500 m, matching
  // the radio range; sweeps use other values to exercise the partition.
  double artery_spacing = 500.0;
  // Spacing between road lines overall (arteries included). Every line whose
  // coordinate falls on a multiple of artery_spacing is an artery; the rest
  // are normal roads. Must divide artery_spacing.
  double minor_spacing = 250.0;

  // --- irregular variant --------------------------------------------------
  bool irregular = false;
  // Fraction of normal-road edges randomly removed (connectivity preserved).
  double dropout = 0.15;
  // Seed for the irregular variant's randomness (jitter + dropout).
  std::uint64_t seed = 1;
};

// Builds the lattice map described by `cfg`. The result is finalized and
// connected.
[[nodiscard]] RoadNetwork build_manhattan_map(const MapConfig& cfg);

// Renders the network (and optionally a partition overlay; see
// grid/partition.h) to a minimal SVG string for human inspection.
[[nodiscard]] std::string render_map_svg(const RoadNetwork& net);

}  // namespace hlsrg
