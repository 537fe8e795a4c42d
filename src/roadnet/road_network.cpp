#include "roadnet/road_network.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/check.h"

namespace hlsrg {

IntersectionId RoadNetwork::add_intersection(Vec2 pos, bool traffic_light) {
  HLSRG_CHECK(!finalized_);
  intersections_.push_back(Intersection{pos, {}, traffic_light});
  return IntersectionId{intersections_.size() - 1};
}

RoadId RoadNetwork::add_road(RoadClass cls, Orientation orient, double coord) {
  HLSRG_CHECK(!finalized_);
  Road r;
  r.cls = cls;
  r.orient = orient;
  r.coord = coord;
  roads_.push_back(r);
  return RoadId{roads_.size() - 1};
}

SegmentId RoadNetwork::add_edge(RoadId road, IntersectionId a,
                                IntersectionId b) {
  HLSRG_CHECK(!finalized_);
  HLSRG_CHECK(road.valid() && road.index() < roads_.size());
  HLSRG_CHECK(a.valid() && a.index() < intersections_.size());
  HLSRG_CHECK(b.valid() && b.index() < intersections_.size());
  HLSRG_CHECK_MSG(a != b, "self-loop edge");

  const Vec2 pa = intersections_[a.index()].pos;
  const Vec2 pb = intersections_[b.index()].pos;
  const double len = distance(pa, pb);
  HLSRG_CHECK_MSG(len > 0.0, "zero-length edge");

  const SegmentId fwd{segments_.size()};
  const SegmentId rev{segments_.size() + 1};
  segments_.push_back(Segment{a, b, road, rev, len, (pb - pa) / len});
  segments_.push_back(Segment{b, a, road, fwd, len, (pa - pb) / len});
  intersections_[a.index()].out.push_back(fwd);
  intersections_[b.index()].out.push_back(rev);
  roads_[road.index()].fwd_segments.push_back(fwd);
  return fwd;
}

void RoadNetwork::finalize() {
  HLSRG_CHECK(!finalized_);
  for (Road& r : roads_) {
    // Running-axis coordinate of a segment's start point.
    auto running = [&](SegmentId sid) {
      const Vec2 p = position(segments_[sid.index()].from);
      return r.orient == Orientation::kHorizontal ? p.x : p.y;
    };
    if (r.orient != Orientation::kOther) {
      std::sort(r.fwd_segments.begin(), r.fwd_segments.end(),
                [&](SegmentId a, SegmentId b) { return running(a) < running(b); });
    }
    for (SegmentId sid : r.fwd_segments) {
      const Segment& s = segments_[sid.index()];
      for (IntersectionId n : {s.from, s.to}) {
        const Vec2 p = position(n);
        const double run =
            r.orient == Orientation::kHorizontal ? p.x : p.y;
        r.span_lo = std::min(r.span_lo, run);
        r.span_hi = std::max(r.span_hi, run);
      }
    }
  }
  finalized_ = true;
  build_intersection_grid();
}

void RoadNetwork::build_intersection_grid() {
  if (intersections_.empty()) return;
  const Aabb box = bounds();
  grid_origin_ = box.lo;
  // Target ~1 intersection per cell so ring walks touch O(1) points.
  const double extent = std::max(box.width(), box.height());
  const double target =
      std::ceil(std::sqrt(static_cast<double>(intersections_.size())));
  grid_cell_ = std::max(1.0, extent / std::max(1.0, target));
  grid_nx_ = static_cast<std::int32_t>(box.width() / grid_cell_) + 1;
  grid_ny_ = static_cast<std::int32_t>(box.height() / grid_cell_) + 1;
  grid_cells_.assign(
      static_cast<std::size_t>(grid_nx_) * static_cast<std::size_t>(grid_ny_),
      {});
  for (std::size_t i = 0; i < intersections_.size(); ++i) {
    const Vec2 p = intersections_[i].pos;
    const auto cx = std::min<std::int32_t>(
        grid_nx_ - 1,
        static_cast<std::int32_t>((p.x - grid_origin_.x) / grid_cell_));
    const auto cy = std::min<std::int32_t>(
        grid_ny_ - 1,
        static_cast<std::int32_t>((p.y - grid_origin_.y) / grid_cell_));
    grid_cells_[static_cast<std::size_t>(cy) * grid_nx_ + cx].push_back(
        static_cast<std::uint32_t>(i));
  }
}

Vec2 RoadNetwork::point_on(SegmentId id, double offset) const {
  const Segment& s = segments_[id.index()];
  HLSRG_CHECK(offset >= -1e-6 && offset <= s.length + 1e-6);
  return position(s.from) + s.unit_dir * offset;
}

IntersectionId RoadNetwork::nearest_intersection_linear(Vec2 p) const {
  HLSRG_CHECK(!intersections_.empty());
  IntersectionId best{std::size_t{0}};
  double best_d2 = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < intersections_.size(); ++i) {
    const double d2 = distance2(p, intersections_[i].pos);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = IntersectionId{i};
    }
  }
  return best;
}

IntersectionId RoadNetwork::nearest_intersection(Vec2 p) const {
  HLSRG_CHECK(!intersections_.empty());
  if (grid_cells_.empty()) return nearest_intersection_linear(p);

  // Expanding Chebyshev rings around p's (unclamped) cell. A point in a
  // ring-r cell is at Euclidean distance >= (r - 1) * cell from p, so once
  // best_d2 < (r * cell)^2 after finishing ring r, no farther ring can hold
  // a closer point — nor an equidistant one that would win the lowest-index
  // tie-break (a tie needs d2 == best_d2, excluded by the strict compare).
  const auto cx =
      static_cast<std::int32_t>(std::floor((p.x - grid_origin_.x) / grid_cell_));
  const auto cy =
      static_cast<std::int32_t>(std::floor((p.y - grid_origin_.y) / grid_cell_));
  const std::int32_t max_r =
      std::max(std::max(std::abs(cx), std::abs(cx - (grid_nx_ - 1))),
               std::max(std::abs(cy), std::abs(cy - (grid_ny_ - 1))));
  std::uint32_t best = 0;
  double best_d2 = std::numeric_limits<double>::max();
  bool found = false;
  auto scan_cell = [&](std::int32_t x, std::int32_t y) {
    if (x < 0 || x >= grid_nx_ || y < 0 || y >= grid_ny_) return;
    const auto& cell =
        grid_cells_[static_cast<std::size_t>(y) * grid_nx_ + x];
    for (std::uint32_t i : cell) {
      const double d2 = distance2(p, intersections_[i].pos);
      // Lex-min on (d2, index): cell lists ascend, but rings visit cells in
      // no particular index order, so break distance ties explicitly.
      if (d2 < best_d2 || (d2 == best_d2 && i < best)) {
        best_d2 = d2;
        best = i;
        found = true;
      }
    }
  };
  for (std::int32_t r = 0; r <= max_r; ++r) {
    if (r == 0) {
      scan_cell(cx, cy);
    } else {
      for (std::int32_t x = cx - r; x <= cx + r; ++x) {
        scan_cell(x, cy - r);
        scan_cell(x, cy + r);
      }
      for (std::int32_t y = cy - r + 1; y <= cy + r - 1; ++y) {
        scan_cell(cx - r, y);
        scan_cell(cx + r, y);
      }
    }
    const double ring_reach = static_cast<double>(r) * grid_cell_;
    if (found && best_d2 < ring_reach * ring_reach) break;
  }
  HLSRG_CHECK(found);
  return IntersectionId{static_cast<std::size_t>(best)};
}

std::vector<IntersectionId> RoadNetwork::intersections_within(
    Vec2 p, double radius) const {
  std::vector<IntersectionId> out;
  const double r2 = radius * radius;
  for (std::size_t i = 0; i < intersections_.size(); ++i) {
    if (distance2(p, intersections_[i].pos) <= r2) out.push_back(IntersectionId{i});
  }
  return out;
}

Aabb RoadNetwork::bounds() const {
  HLSRG_CHECK(!intersections_.empty());
  Aabb box{intersections_.front().pos, intersections_.front().pos};
  for (const Intersection& n : intersections_) {
    box.lo.x = std::min(box.lo.x, n.pos.x);
    box.lo.y = std::min(box.lo.y, n.pos.y);
    box.hi.x = std::max(box.hi.x, n.pos.x);
    box.hi.y = std::max(box.hi.y, n.pos.y);
  }
  return box;
}

bool RoadNetwork::is_connected() const {
  if (intersections_.empty()) return true;
  std::vector<char> seen(intersections_.size(), 0);
  std::vector<IntersectionId> stack{IntersectionId{std::size_t{0}}};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const IntersectionId cur = stack.back();
    stack.pop_back();
    for (SegmentId sid : intersections_[cur.index()].out) {
      const IntersectionId next = segments_[sid.index()].to;
      if (!seen[next.index()]) {
        seen[next.index()] = 1;
        ++visited;
        stack.push_back(next);
      }
    }
  }
  return visited == intersections_.size();
}

std::vector<RoadId> RoadNetwork::spanning_roads(Orientation orient) const {
  const Aabb box = bounds();
  const double extent =
      orient == Orientation::kHorizontal ? box.width() : box.height();
  std::vector<RoadId> out;
  for (std::size_t i = 0; i < roads_.size(); ++i) {
    const Road& r = roads_[i];
    if (r.orient != orient || r.fwd_segments.empty()) continue;
    if (r.span_hi - r.span_lo >= kMinSpanFrac * extent) {
      out.push_back(RoadId{i});
    }
  }
  std::sort(out.begin(), out.end(), [&](RoadId a, RoadId b) {
    return roads_[a.index()].coord < roads_[b.index()].coord;
  });
  return out;
}

}  // namespace hlsrg
