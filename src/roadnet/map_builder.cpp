#include "roadnet/map_builder.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "sim/rng.h"
#include "util/check.h"

namespace hlsrg {

namespace {

// Normal-road lines of the irregular variant are shifted by up to
// +/- kJitterFrac * minor_spacing.
constexpr double kJitterFrac = 0.2;

// True if `coord` lies on a multiple of `spacing` (within tolerance).
bool on_multiple(double coord, double spacing) {
  const double r = std::fmod(coord, spacing);
  constexpr double kTol = 1e-6;
  return r < kTol || spacing - r < kTol;
}

struct LineSpec {
  double coord;
  RoadClass cls;
};

// Generates the line coordinates for one axis.
std::vector<LineSpec> make_lines(const MapConfig& cfg, Rng* jitter_rng) {
  HLSRG_CHECK(cfg.minor_spacing > 0.0 && cfg.artery_spacing > 0.0);
  HLSRG_CHECK_MSG(on_multiple(cfg.artery_spacing, cfg.minor_spacing),
                  "minor_spacing must divide artery_spacing");
  std::vector<LineSpec> lines;
  for (double c = 0.0; c <= cfg.size_m + 1e-6; c += cfg.minor_spacing) {
    const bool artery = on_multiple(c, cfg.artery_spacing);
    double coord = std::min(c, cfg.size_m);
    if (jitter_rng != nullptr && !artery) {
      // Shift normal lines; clamp so ordering with neighbours is preserved.
      const double j = kJitterFrac * cfg.minor_spacing;
      coord += jitter_rng->uniform(-j, j);
    }
    lines.push_back({coord, artery ? RoadClass::kMainArtery : RoadClass::kNormal});
  }
  return lines;
}

}  // namespace

RoadNetwork build_manhattan_map(const MapConfig& cfg) {
  HLSRG_CHECK(cfg.size_m > 0.0);
  Rng rng(cfg.seed);
  Rng* jitter = cfg.irregular ? &rng : nullptr;

  const std::vector<LineSpec> vlines = make_lines(cfg, jitter);  // x = const
  const std::vector<LineSpec> hlines = make_lines(cfg, jitter);  // y = const

  RoadNetwork net;

  // Intersections at every line crossing, indexed [ix][iy].
  const std::size_t nx = vlines.size();
  const std::size_t ny = hlines.size();
  std::vector<IntersectionId> nodes(nx * ny);
  auto node_at = [&](std::size_t ix, std::size_t iy) -> IntersectionId& {
    return nodes[ix * ny + iy];
  };
  for (std::size_t ix = 0; ix < nx; ++ix) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      node_at(ix, iy) =
          net.add_intersection({vlines[ix].coord, hlines[iy].coord});
    }
  }

  // Roads: one per line; edges between consecutive crossings.
  struct PendingEdge {
    RoadId road;
    IntersectionId a;
    IntersectionId b;
    bool normal;
  };
  std::vector<PendingEdge> edges;
  for (std::size_t ix = 0; ix < nx; ++ix) {
    const RoadId road = net.add_road(vlines[ix].cls, Orientation::kVertical,
                                     vlines[ix].coord);
    for (std::size_t iy = 0; iy + 1 < ny; ++iy) {
      edges.push_back({road, node_at(ix, iy), node_at(ix, iy + 1),
                       vlines[ix].cls == RoadClass::kNormal});
    }
  }
  for (std::size_t iy = 0; iy < ny; ++iy) {
    const RoadId road = net.add_road(hlines[iy].cls, Orientation::kHorizontal,
                                     hlines[iy].coord);
    for (std::size_t ix = 0; ix + 1 < nx; ++ix) {
      edges.push_back({road, node_at(ix, iy), node_at(ix + 1, iy),
                       hlines[iy].cls == RoadClass::kNormal});
    }
  }

  if (cfg.irregular && cfg.dropout > 0.0) {
    // Remove a fraction of normal edges without disconnecting the graph.
    // Union-find over the kept edges: first keep everything not dropped,
    // then re-add dropped edges whose endpoints are still in different
    // components.
    std::vector<std::size_t> parent(nodes.size());
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    auto find = [&](std::size_t v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
      }
      return v;
    };
    auto unite = [&](std::size_t a, std::size_t b) {
      parent[find(a)] = find(b);
    };

    std::vector<PendingEdge> kept;
    std::vector<PendingEdge> dropped;
    for (const PendingEdge& e : edges) {
      if (e.normal && rng.chance(cfg.dropout)) {
        dropped.push_back(e);
      } else {
        kept.push_back(e);
        unite(e.a.index(), e.b.index());
      }
    }
    for (const PendingEdge& e : dropped) {
      if (find(e.a.index()) != find(e.b.index())) {
        kept.push_back(e);
        unite(e.a.index(), e.b.index());
      }
    }
    edges = std::move(kept);
  }

  for (const PendingEdge& e : edges) net.add_edge(e.road, e.a, e.b);
  net.finalize();
  HLSRG_CHECK_MSG(net.is_connected(), "generated map must be connected");
  return net;
}

std::string render_map_svg(const RoadNetwork& net) {
  const Aabb box = net.bounds().inflated(50.0);
  std::ostringstream svg;
  svg << "<svg xmlns='http://www.w3.org/2000/svg' viewBox='" << box.lo.x << ' '
      << box.lo.y << ' ' << box.width() << ' ' << box.height() << "'>\n";
  // y axis flipped so north is up.
  svg << "<g transform='translate(0," << (box.lo.y + box.hi.y)
      << ") scale(1,-1)'>\n";
  for (const Road& r : net.roads()) {
    const char* color = r.cls == RoadClass::kMainArtery ? "#333" : "#aaa";
    const double width = r.cls == RoadClass::kMainArtery ? 8.0 : 3.0;
    for (SegmentId sid : r.fwd_segments) {
      const LineSegment g = net.geometry(sid);
      svg << "<line x1='" << g.a.x << "' y1='" << g.a.y << "' x2='" << g.b.x
          << "' y2='" << g.b.y << "' stroke='" << color << "' stroke-width='"
          << width << "'/>\n";
    }
  }
  for (const Intersection& n : net.intersections()) {
    svg << "<circle cx='" << n.pos.x << "' cy='" << n.pos.y
        << "' r='4' fill='#555'/>\n";
  }
  svg << "</g>\n</svg>\n";
  return svg.str();
}

}  // namespace hlsrg
