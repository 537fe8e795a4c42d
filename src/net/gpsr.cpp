#include "net/gpsr.h"

#include <cmath>
#include <numbers>
#include <vector>

#include "geom/segment.h"
#include "util/check.h"

namespace hlsrg {

// Routing gives up after this many hops (covers perimeter loops on
// disconnected topologies).
constexpr int kMaxHops = 64;
// A packet addressed to a position (no target node) is delivered to the
// first node within this distance of the destination position.
constexpr double kDefaultDeliveryRadius = 80.0;

struct GpsrRouter::RouteState {
  Vec2 dest_pos;
  std::optional<NodeId> dest_node;
  double delivery_radius = 0.0;
  // HLSRG_LINT_ALLOW(send-kind): carrier slot — holds the caller's
  // fully-formed packet (kind set by its make_packet factory) for the hops.
  Packet pkt;
  int hops = 0;
  bool perimeter = false;
  Vec2 perimeter_entry;  // position where perimeter mode was entered
  NodeId prev;           // previous hop, for the right-hand rule
  std::uint64_t* tx_counter = nullptr;
  DeliverFn deliver;
  FailFn fail;
  SpanId span = kNoSpan;  // the route's own span (parent of its hop spans)
  SpanId ctx = kNoSpan;   // caller context, re-established at delivery
};

GpsrRouter::GpsrRouter(RadioMedium& medium, const NodeRegistry& registry)
    : medium_(&medium), registry_(&registry),
      hops_hist_(medium.sim().observability().histogram("gpsr.route_hops")) {}

void GpsrRouter::send(NodeId src, Vec2 dest_pos,
                      std::optional<NodeId> dest_node, Packet pkt,
                      std::uint64_t* tx_counter, DeliverFn deliver, FailFn fail,
                      double delivery_radius) {
  auto st = std::make_shared<RouteState>();
  st->dest_pos = dest_pos;
  st->dest_node = dest_node;
  st->delivery_radius =
      delivery_radius > 0.0 ? delivery_radius : kDefaultDeliveryRadius;
  st->pkt = std::move(pkt);
  st->tx_counter = tx_counter;
  st->deliver = std::move(deliver);
  st->fail = std::move(fail);
  Simulator& sim = medium_->sim();
  st->ctx = sim.active_span();
  st->span = sim.begin_span(
      SpanKind::kGpsrRoute, src.value(),
      dest_node.has_value() ? dest_node->value() : kNoQuery,
      registry_->position(src), kNoQuery, -1, packet_kind_name(st->pkt.kind));
  route_step(src, st);
}

void GpsrRouter::gather_neighbors(NodeId current,
                                  std::vector<NeighborView>* out) {
  out->clear();
  if (beacons_ != nullptr) {
    // Beacon mode: what the node has *heard*, positions possibly stale.
    std::vector<BeaconService::Neighbor> heard;
    beacons_->neighbors_of(current, &heard);
    out->reserve(heard.size());
    for (const auto& n : heard) out->push_back(NeighborView{n.id, n.heard_pos});
    return;
  }
  // Genie mode: perfect instantaneous neighborhood.
  std::vector<NodeId> ids;
  medium_->neighbors_of(current, &ids);
  out->reserve(ids.size());
  for (NodeId id : ids) {
    out->push_back(NeighborView{id, registry_->position(id)});
  }
}

NodeId GpsrRouter::greedy_next(Vec2 current_pos, Vec2 dest,
                               const std::vector<NeighborView>& neighbors) {
  const double here = distance2(current_pos, dest);
  NodeId best;
  double best_d = here;
  for (const NeighborView& n : neighbors) {
    const double d = distance2(n.pos, dest);
    if (d < best_d) {
      best_d = d;
      best = n.id;
    }
  }
  return best;  // invalid when no neighbor is strictly closer
}

NodeId GpsrRouter::perimeter_next(Vec2 current_pos, Vec2 reference_toward,
                                  const std::vector<NeighborView>& neighbors) {
  // Gabriel-graph planarization of the local star: keep edge (c, n) iff no
  // other neighbor lies inside the circle whose diameter is (c, n).
  std::vector<const NeighborView*> planar;
  for (const NeighborView& n : neighbors) {
    const Vec2 mid = (current_pos + n.pos) * 0.5;
    const double r2 = distance2(current_pos, mid);
    bool keep = true;
    for (const NeighborView& w : neighbors) {
      if (w.id == n.id) continue;
      if (distance2(w.pos, mid) < r2) {
        keep = false;
        break;
      }
    }
    if (keep) planar.push_back(&n);
  }
  if (planar.empty()) return {};

  // Right-hand rule: take the first planar edge counter-clockwise from the
  // reference direction.
  const double ref = (reference_toward - current_pos).angle();
  NodeId best;
  double best_delta = 2.0 * std::numbers::pi + 1.0;
  for (const NeighborView* n : planar) {
    const double a = (n->pos - current_pos).angle();
    double delta = a - ref;
    constexpr double kTwoPi = 2.0 * std::numbers::pi;
    while (delta <= 1e-9) delta += kTwoPi;  // strictly CCW of the reference
    if (delta < best_delta) {
      best_delta = delta;
      best = n->id;
    }
  }
  return best;
}

void GpsrRouter::route_step(NodeId current,
                            const std::shared_ptr<RouteState>& st) {
  const Vec2 cp = registry_->position(current);
  const double d = distance(cp, st->dest_pos);

  // Delivery checks.
  const bool at_dest_node =
      st->dest_node.has_value() && current == *st->dest_node;
  const bool in_dest_radius =
      !st->dest_node.has_value() && d <= st->delivery_radius;
  if (at_dest_node || in_dest_radius) {
    Simulator& sim = medium_->sim();
    sim.end_span(st->span, SpanStatus::kOk, cp, st->hops);
    hops_hist_->record(st->hops);
    SpanScope scope(sim, st->ctx);
    if (PacketSink* sink = registry_->sink(current)) {
      sink->on_receive(st->pkt, st->prev.valid() ? st->prev : current);
    }
    if (st->deliver) st->deliver(current);
    return;
  }

  if (++st->hops > kMaxHops) {
    Simulator& sim = medium_->sim();
    sim.metrics().gpsr_failures++;
    sim.end_span(st->span, SpanStatus::kFailed, cp, st->hops);
    if (st->fail) {
      SpanScope scope(sim, st->ctx);
      st->fail();
    }
    return;
  }

  std::vector<NeighborView> neighbors;
  gather_neighbors(current, &neighbors);

  // Opportunistic direct hop to the target when it is audible.
  NodeId next;
  if (st->dest_node.has_value()) {
    for (const NeighborView& n : neighbors) {
      if (n.id == *st->dest_node) {
        next = n.id;
        break;
      }
    }
  }

  if (!next.valid()) {
    // Perimeter exit rule: back to greedy once closer than the entry point.
    if (st->perimeter &&
        d < distance(st->perimeter_entry, st->dest_pos) - 1e-9) {
      st->perimeter = false;
    }
    if (!st->perimeter) {
      next = greedy_next(cp, st->dest_pos, neighbors);
      if (!next.valid()) {
        st->perimeter = true;
        st->perimeter_entry = cp;
        next = perimeter_next(cp, st->dest_pos, neighbors);
      }
    } else {
      const Vec2 ref = st->prev.valid() ? registry_->position(st->prev)
                                        : st->dest_pos;
      next = perimeter_next(cp, ref, neighbors);
    }
  }

  if (!next.valid()) {
    Simulator& sim = medium_->sim();
    sim.metrics().gpsr_failures++;
    sim.end_span(st->span, SpanStatus::kFailed, cp, st->hops);
    if (st->fail) {
      SpanScope scope(sim, st->ctx);
      st->fail();
    }
    return;
  }

  if (st->tx_counter != nullptr) ++*st->tx_counter;
  const NodeId from = current;
  // Hop spans nest under the route span, and the continuation comes back
  // with the route span active (the radio re-establishes the context it
  // captures here around on_delivered).
  SpanScope scope(medium_->sim(), st->span);
  medium_->unicast_frame(
      current, next, st->pkt.kind,
      /*on_delivered=*/[this, from, next, st] {
        st->prev = from;
        route_step(next, st);
      },
      /*on_lost=*/[this, st] {
        Simulator& sim = medium_->sim();
        sim.metrics().gpsr_failures++;
        const Vec2 where = st->prev.valid() ? registry_->position(st->prev)
                                            : st->dest_pos;
        sim.end_span(st->span, SpanStatus::kFailed, where, st->hops);
        if (st->fail) {
          SpanScope fail_scope(sim, st->ctx);
          st->fail();
        }
      });
}

}  // namespace hlsrg
