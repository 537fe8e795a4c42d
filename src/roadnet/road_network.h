// Road network: the digital map every vehicle carries.
//
// The map is a directed graph. Intersections are nodes; each physical road
// edge between adjacent intersections contributes two directed Segments (one
// per travel direction). Segments are grouped into Roads — maximal straight
// lines with a class (main artery / normal road) — because both the paper's
// grid partition ("select the main arteries to be boundaries") and its
// directional geocast ("broadcast along the road with direction dir") operate
// on whole roads, not individual edges.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "geom/aabb.h"
#include "geom/segment.h"
#include "geom/vec2.h"
#include "util/tagged_id.h"

namespace hlsrg {

enum class RoadClass : std::uint8_t { kNormal, kMainArtery };

// Orientation of a road line. The synthetic maps are Manhattan lattices, so
// every road is axis-aligned; kOther is reserved for hand-built test graphs.
enum class Orientation : std::uint8_t { kHorizontal, kVertical, kOther };

struct Intersection {
  Vec2 pos;
  // Outgoing directed segments, in insertion order.
  std::vector<SegmentId> out;
  bool has_traffic_light = false;
};

struct Segment {
  IntersectionId from;
  IntersectionId to;
  RoadId road;
  SegmentId reverse;  // the opposite-direction twin
  double length = 0.0;
  Vec2 unit_dir;  // from -> to, unit length
};

struct Road {
  RoadClass cls = RoadClass::kNormal;
  Orientation orient = Orientation::kOther;
  // For axis-aligned roads: the fixed coordinate (y for horizontal roads,
  // x for vertical ones). Unused for kOther.
  double coord = 0.0;
  // Extent along the road's running axis.
  double span_lo = std::numeric_limits<double>::max();
  double span_hi = std::numeric_limits<double>::lowest();
  // Forward-direction segments in increasing running-axis order. The reverse
  // twins are reachable via Segment::reverse.
  std::vector<SegmentId> fwd_segments;
};

// Minimum fraction of the map extent a road must span to be a partition
// boundary candidate (RoadNetwork::spanning_roads).
inline constexpr double kMinSpanFrac = 0.95;

class RoadNetwork {
 public:
  // --- construction -------------------------------------------------------
  IntersectionId add_intersection(Vec2 pos, bool traffic_light = true);
  RoadId add_road(RoadClass cls, Orientation orient, double coord = 0.0);
  // Adds the physical edge a<->b to `road`; creates both directed segments
  // and returns the a->b one. Endpoints must be distinct intersections.
  SegmentId add_edge(RoadId road, IntersectionId a, IntersectionId b);
  // Sorts each road's forward segments along its running axis and records
  // spans; call once after all edges are added.
  void finalize();

  // --- accessors ----------------------------------------------------------
  [[nodiscard]] std::size_t intersection_count() const { return intersections_.size(); }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] std::size_t road_count() const { return roads_.size(); }

  [[nodiscard]] const Intersection& intersection(IntersectionId id) const {
    return intersections_[id.index()];
  }
  [[nodiscard]] const Segment& segment(SegmentId id) const {
    return segments_[id.index()];
  }
  [[nodiscard]] const Road& road(RoadId id) const { return roads_[id.index()]; }

  [[nodiscard]] Vec2 position(IntersectionId id) const {
    return intersections_[id.index()].pos;
  }

  // Point at `offset` metres from the segment's start.
  [[nodiscard]] Vec2 point_on(SegmentId id, double offset) const;

  [[nodiscard]] LineSegment geometry(SegmentId id) const {
    const Segment& s = segments_[id.index()];
    return {position(s.from), position(s.to)};
  }

  [[nodiscard]] bool is_artery(SegmentId id) const {
    return roads_[segments_[id.index()].road.index()].cls ==
           RoadClass::kMainArtery;
  }

  // --- queries ------------------------------------------------------------
  // Nearest intersection to p; ties (equal distance) resolve to the lowest
  // index. After finalize() this walks an expanding ring of grid cells
  // (O(points near p)); before it, a linear scan.
  [[nodiscard]] IntersectionId nearest_intersection(Vec2 p) const;

  // All intersections within `radius` of p.
  [[nodiscard]] std::vector<IntersectionId> intersections_within(
      Vec2 p, double radius) const;

  // Bounding box of all intersections.
  [[nodiscard]] Aabb bounds() const;

  // True if every intersection is reachable from every other (undirected
  // sense; our edges always come in directed pairs).
  [[nodiscard]] bool is_connected() const;

  // Roads of the given orientation that span at least kMinSpanFrac of the
  // map extent along their running axis — the partition's boundary candidates.
  [[nodiscard]] std::vector<RoadId> spanning_roads(Orientation orient) const;

  [[nodiscard]] const std::vector<Intersection>& intersections() const {
    return intersections_;
  }
  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }
  [[nodiscard]] const std::vector<Road>& roads() const { return roads_; }

 private:
  [[nodiscard]] IntersectionId nearest_intersection_linear(Vec2 p) const;
  // Builds the nearest-intersection grid; finalize()-only.
  void build_intersection_grid();

  std::vector<Intersection> intersections_;
  std::vector<Segment> segments_;
  std::vector<Road> roads_;
  bool finalized_ = false;

  // Uniform grid over bounds() for nearest_intersection: cell (x, y) at
  // index y * grid_nx_ + x holds the ascending intersection indices whose
  // position falls in it. Sized so the average cell holds ~1 intersection.
  Vec2 grid_origin_;
  double grid_cell_ = 0.0;
  std::int32_t grid_nx_ = 0;
  std::int32_t grid_ny_ = 0;
  std::vector<std::vector<std::uint32_t>> grid_cells_;
};

}  // namespace hlsrg
