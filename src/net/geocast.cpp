#include "net/geocast.h"

#include <algorithm>
#include <limits>

#include "util/open_address_map.h"

namespace hlsrg {

GeocastRegion GeocastRegion::corridor(Vec2 origin, Vec2 dir, double half_width,
                                      double max_ahead, double behind_slack) {
  GeocastRegion r;
  r.shape = Shape::kCorridor;
  r.corridor_origin = origin;
  r.corridor_dir = dir;
  r.half_width = half_width;
  r.max_ahead = max_ahead;
  r.behind_slack = behind_slack;
  return r;
}

GeocastRegion GeocastRegion::from_box(const Aabb& b, double margin) {
  GeocastRegion r;
  r.shape = Shape::kBox;
  r.box = b.inflated(margin);
  return r;
}

bool GeocastRegion::contains(Vec2 p) const {
  switch (shape) {
    case Shape::kCorridor:
      return in_corridor(p, corridor_origin, corridor_dir, half_width,
                         max_ahead, behind_slack);
    case Shape::kBox:
      return box.contains_closed(p);
  }
  return false;
}

struct GeocastService::FloodState {
  // HLSRG_LINT_ALLOW(send-kind): carrier slot — holds the caller's
  // fully-formed packet (kind set by its make_packet factory) for the flood.
  Packet pkt;
  GeocastRegion region;
  // Every node that has heard the flood, keyed by raw id, mapped to the
  // squared distance to the nearest transmitter it heard the flood from.
  // Presence means "seen", so a reception costs one probe.
  OpenAddressMap<std::uint64_t, double> nearest_d2;
  std::uint64_t* tx_counter = nullptr;
  int transmissions = 0;
};

GeocastService::GeocastService(RadioMedium& medium,
                               const NodeRegistry& registry, GeocastConfig cfg)
    : medium_(&medium),
      registry_(&registry),
      cfg_(cfg),
      covered_d2_(kCoveredRadiusFraction * medium.range() *
                  kCoveredRadiusFraction * medium.range()) {}

void GeocastService::flood(NodeId origin, Packet pkt, GeocastRegion region,
                           std::uint64_t* tx_counter) {
  auto st = std::make_shared<FloodState>();
  st->pkt = std::move(pkt);
  st->region = region;
  st->tx_counter = tx_counter;
  // The origin is seen from the start and transmits unconditionally, so
  // the distance stored for it is never consulted.
  st->nearest_d2.find_or_insert(origin.value(),
                                std::numeric_limits<double>::infinity());
  step(origin, st);
}

void GeocastService::rebroadcast(NodeId node,
                                 const std::shared_ptr<FloodState>& st) {
  if (*st->nearest_d2.find(node.value()) < covered_d2_) {
    ++medium_->sim().metrics().rebroadcasts_suppressed;
    return;
  }
  step(node, st);
}

void GeocastService::step(NodeId node, const std::shared_ptr<FloodState>& st) {
  if (st->transmissions >= cfg_.max_transmissions) return;
  ++st->transmissions;
  if (st->tx_counter != nullptr) ++*st->tx_counter;
  const Vec2 tx_pos = registry_->position(node);
  medium_->broadcast_each(
      node, tx_pos, st->pkt.kind, [this, node, tx_pos, st](NodeId rx) {
        const Vec2 rx_pos = registry_->position(rx);
        const double d2 = distance2(tx_pos, rx_pos);
        const auto [nearest, first] =
            st->nearest_d2.try_insert(rx.value(), d2);
        if (!first) {  // a duplicate: only the nearest transmitter matters
          *nearest = std::min(*nearest, d2);
          return;
        }
        if (!st->region.contains(rx_pos)) return;
        if (PacketSink* sink = registry_->sink(rx)) {
          sink->on_receive(st->pkt, node);
        }
        const double jitter =
            medium_->sim().radio_rng().uniform(0.1, cfg_.rebroadcast_delay_ms);
        medium_->sim().schedule_after(SimTime::from_ms(jitter),
                                      [this, rx, st] { rebroadcast(rx, st); });
      });
}

}  // namespace hlsrg
