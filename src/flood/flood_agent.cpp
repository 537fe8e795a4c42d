#include "flood/flood_agent.h"

#include <algorithm>

#include "flood/flood_service.h"
#include "util/check.h"

namespace hlsrg {

// Cache freshness horizon; matched to HLSRG's L1 expiry for parity.
constexpr SimTime kCacheExpiry = SimTime::from_min(2.2);

FloodVehicleAgent::FloodVehicleAgent(FloodService& service, VehicleId vehicle,
                                     NodeId node)
    : svc_(&service), vehicle_(vehicle), node_(node) {
  // Stagger initial floods across the first update interval so ignition does
  // not synchronize the whole fleet.
  distance_since_flood_ =
      svc_->sim().protocol_rng().uniform(0.0, svc_->cfg().update_distance_m);
}

void FloodVehicleAgent::handle_moved(Vec2 before, Vec2 after) {
  distance_since_flood_ += distance(before, after);
  if (distance_since_flood_ >= svc_->cfg().update_distance_m) {
    distance_since_flood_ = 0.0;
    flood_own_location();
  }
}

void FloodVehicleAgent::flood_own_location() {
  auto payload = std::make_shared<FloodUpdatePayload>();
  payload->vehicle = vehicle_;
  payload->pos = svc_->vehicle_pos(vehicle_);
  payload->time = svc_->sim().now();
  svc_->metrics().update_packets_originated++;
  svc_->sim().count_region_update(payload->pos);
  svc_->sim().instant_span(SpanKind::kUpdate, SpanStatus::kOk,
                           vehicle_.value(), kNoQuery, payload->pos);
  svc_->geocast().flood(
      node_, svc_->make_packet(PacketKind::kFloodUpdate, node_, payload),
      GeocastRegion::from_box(svc_->map_bounds(), /*margin=*/100.0),
      &svc_->metrics().update_transmissions);
}

void FloodVehicleAgent::on_receive(const Packet& packet, NodeId /*from*/) {
  switch (packet.kind) {
    case PacketKind::kFloodUpdate: {
      const auto& u = payload_as<FloodUpdatePayload>(packet);
      if (u.vehicle == vehicle_) return;
      cache_.record(CacheEntry{u.vehicle, u.pos, u.time});
      return;
    }
    case PacketKind::kFloodProbe:
    case PacketKind::kFloodQuery: {
      const auto& p = payload_as<FloodProbePayload>(packet);
      if (p.target != vehicle_) return;
      if (!queries_.mark(QueryState::Mark::kAnswered, p.query_id,
                         svc_->mark_epoch())) {
        return;
      }
      auto ack = std::make_shared<FloodAckPayload>();
      ack->query_id = p.query_id;
      ack->responder = vehicle_;
      svc_->metrics().query_packets_originated++;
      svc_->metrics().acks_sent++;
      // ACK leg back to the querier, open until the query settles. Geocast
      // floods deliver without span context, so fall back to the query root.
      Simulator& sim = svc_->sim();
      SpanScope anchor(sim, sim.active_span() != kNoSpan
                                ? sim.active_span()
                                : svc_->tracker().span_of(p.query_id));
      const SpanId ack_span = sim.begin_span(
          SpanKind::kAckLeg, vehicle_.value(), p.src_vehicle.value(),
          svc_->vehicle_pos(vehicle_), p.query_id);
      SpanScope scope(sim, ack_span);
      svc_->gpsr().send(node_, p.src_pos, p.src_node,
                        svc_->make_packet(PacketKind::kFloodAck, node_, ack),
                        &svc_->metrics().query_transmissions);
      return;
    }
    case PacketKind::kFloodAck: {
      const auto& a = payload_as<FloodAckPayload>(packet);
      if (auto timer = queries_.disarm_retry(a.query_id)) {
        svc_->sim().cancel(*timer);
        svc_->tracker().succeed(a.query_id);
      }
      return;
    }
    default:
      return;
  }
}

void FloodVehicleAgent::start_query(QueryTracker::QueryId qid,
                                    VehicleId target) {
  cache_.purge(svc_->sim().now(), kCacheExpiry);
  auto probe = std::make_shared<FloodProbePayload>();
  probe->query_id = qid;
  probe->src_vehicle = vehicle_;
  probe->src_node = node_;
  probe->src_pos = svc_->vehicle_pos(vehicle_);
  probe->target = target;
  svc_->metrics().query_packets_originated++;

  if (const CacheEntry* found = cache_.find(target)) {
    // A copy: find() pointers do not outlive an insert into the cache.
    const CacheEntry hit = *found;
    svc_->sim().count_region_served(probe->src_pos);
    // Proactive path (DREAM's "expected zone"): flood a disk-shaped region
    // around the cached position, sized by how far the target could have
    // driven since the record was made.
    svc_->metrics().server_lookup_hits++;
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kOk,
                             vehicle_.value(), target.value(), probe->src_pos,
                             qid, -1, "cache");
    const double age_sec = (svc_->sim().now() - hit.time).sec();
    constexpr double kMaxSpeedMps = 60.0 / 3.6;
    const double drift =
        std::clamp(100.0 + age_sec * kMaxSpeedMps, 100.0, 900.0);
    const Aabb zone{{hit.pos.x - drift, hit.pos.y - drift},
                    {hit.pos.x + drift, hit.pos.y + drift}};
    svc_->geocast().flood(node_, svc_->make_packet(PacketKind::kFloodProbe, node_, probe),
                          GeocastRegion::from_box(zone),
                          &svc_->metrics().query_transmissions);
  } else {
    // Reactive path: flood the question (LAR-style).
    svc_->metrics().server_lookup_misses++;
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kFailed,
                             vehicle_.value(), target.value(), probe->src_pos,
                             qid, -1, "cache");
    svc_->geocast().flood(
        node_, svc_->make_packet(PacketKind::kFloodQuery, node_, probe),
        GeocastRegion::from_box(svc_->map_bounds(), /*margin=*/100.0),
        &svc_->metrics().query_transmissions);
  }

  queries_.arm_retry(
      qid,
      svc_->sim().schedule_after(kFloodAckTimeout, [this, qid, target] {
        // One reactive retry after a failed probe; then give up.
        if (!queries_.disarm_retry(qid)) return;
        auto retry = std::make_shared<FloodProbePayload>();
        retry->query_id = qid;
        retry->src_vehicle = vehicle_;
        retry->src_node = node_;
        retry->src_pos = svc_->vehicle_pos(vehicle_);
        retry->target = target;
        svc_->metrics().query_packets_originated++;
        svc_->geocast().flood(
            node_, svc_->make_packet(PacketKind::kFloodQuery, node_, retry),
            GeocastRegion::from_box(svc_->map_bounds(), 100.0),
            &svc_->metrics().query_transmissions);
        queries_.arm_retry(qid,
                           svc_->sim().schedule_after(
                               kFloodAckTimeout,
                               [this, qid] {
                                 queries_.disarm_retry(qid);
                                 svc_->tracker().fail(qid);
                               }),
                           2);
      }));
}

}  // namespace hlsrg
