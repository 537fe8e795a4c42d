// Geocast: region-limited flooding.
//
// HLSRG's location servers find a destination vehicle either by broadcasting
// "along the road with a given direction" (a corridor flood) or "within the
// range of this Level 1 grid" (a box flood). Both are duplicate-suppressed
// floods where only nodes inside the region rebroadcast; loss and delay come
// from the radio layer per hop.
//
// Rebroadcasts are distance-suppressed (the broadcast-storm "distance-based
// scheme", Ni et al., MobiCom 1999): each node remembers how close the
// nearest transmitter it heard the flood from was, duplicates included, and
// when its jitter timer fires it stays silent if that transmitter was within
// kCoveredRadiusFraction of the radio range. Behind a relay that close, this
// node's own transmission would add at most ~38% of a disk of new coverage
// (up to 61% at the edge of range). The origin always transmits.
#pragma once

#include <cstdint>
#include <memory>

#include "geom/aabb.h"
#include "geom/segment.h"
#include "net/radio.h"

namespace hlsrg {

// The flood region: either a corridor (origin + direction + extent) or a box.
struct GeocastRegion {
  enum class Shape : std::uint8_t { kCorridor, kBox };
  Shape shape = Shape::kBox;

  // Corridor parameters (shape == kCorridor).
  Vec2 corridor_origin;
  Vec2 corridor_dir;       // need not be unit length
  double half_width = 0.0;
  double max_ahead = 0.0;
  double behind_slack = 0.0;

  // Box parameters (shape == kBox).
  Aabb box;

  [[nodiscard]] static GeocastRegion corridor(Vec2 origin, Vec2 dir,
                                              double half_width,
                                              double max_ahead,
                                              double behind_slack = 100.0);
  [[nodiscard]] static GeocastRegion from_box(const Aabb& b, double margin = 0.0);

  [[nodiscard]] bool contains(Vec2 p) const;
};

struct GeocastConfig {
  // Random forwarding delay per rebroadcast, uniform in (0, max]; staggers
  // rebroadcasts so they do not all collide at the same instant.
  double rebroadcast_delay_ms = 4.0;
  // Rebroadcast budget per flood; regions here are small so floods terminate
  // by geometry long before this.
  int max_transmissions = 256;
};

// A node whose nearest heard transmitter was closer than this fraction of the
// radio range skips its rebroadcast (300 m at the paper's 500 m range).
inline constexpr double kCoveredRadiusFraction = 0.6;

class GeocastService {
 public:
  GeocastService(RadioMedium& medium, const NodeRegistry& registry,
                 GeocastConfig cfg = {});

  // Floods `pkt` over all nodes in `region`, starting from `origin` (which
  // may itself be outside the region, e.g. a grid-center server flooding a
  // corridor that starts at a recorded position). Every in-region node
  // receives the packet at most once via its PacketSink: a node can miss it
  // to loss or when every nearby relay stayed suppressed. Each transmission
  // increments *tx_counter when provided; a suppressed rebroadcast sends
  // nothing and increments RunMetrics::rebroadcasts_suppressed instead.
  void flood(NodeId origin, Packet pkt, GeocastRegion region,
             std::uint64_t* tx_counter = nullptr);

 private:
  struct FloodState;
  // Transmits the flood from `node` once and schedules in-region receivers'
  // rebroadcasts.
  void step(NodeId node, const std::shared_ptr<FloodState>& st);
  // A receiver's jitter timer: step() unless a near relay covered `node`.
  void rebroadcast(NodeId node, const std::shared_ptr<FloodState>& st);

  RadioMedium* medium_;
  const NodeRegistry* registry_;
  GeocastConfig cfg_;
  // (kCoveredRadiusFraction * range)^2.
  double covered_d2_;
};

}  // namespace hlsrg
