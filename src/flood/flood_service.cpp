#include "flood/flood_service.h"

#include "flood/flood_agent.h"
#include "util/check.h"

namespace hlsrg {

FloodService::FloodService(Simulator& sim, MobilityModel& mobility,
                           NodeRegistry& registry, RadioMedium& medium,
                           GpsrRouter& gpsr, GeocastService& geocast,
                           Aabb map_bounds, FloodConfig cfg)
    : sim_(&sim),
      mobility_(&mobility),
      registry_(&registry),
      medium_(&medium),
      gpsr_(&gpsr),
      geocast_(&geocast),
      map_bounds_(map_bounds),
      cfg_(cfg),
      tracker_(sim) {
  const std::size_t n = mobility.vehicle_count();
  vehicle_nodes_.reserve(n);
  vehicle_agents_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const VehicleId v{i};
    const NodeId node = registry.add_node(mobility.position(v));
    registry.bind_vehicle(v, node);
    registry.set_vehicle_parked(v, mobility.parked(v));
    vehicle_nodes_.push_back(node);
    // reserve(n) above makes this the agent's final address.
    vehicle_agents_.emplace_back(*this, v, node);
    registry.set_sink(node, &vehicle_agents_.back());
  }
  mobility.add_listener(this);
}

FloodService::~FloodService() = default;

FloodVehicleAgent& FloodService::vehicle_agent(VehicleId v) {
  return vehicle_agents_[v.index()];
}

QueryTracker::QueryId FloodService::issue_query(VehicleId src, VehicleId dst) {
  HLSRG_CHECK(src.index() < vehicle_agents_.size());
  HLSRG_CHECK(dst.index() < vehicle_agents_.size());
  const QueryTracker::QueryId qid = tracker_.issue(src, dst);
  // Nest the source agent's synchronous work under the query root span.
  SpanScope scope(*sim_, tracker_.span_of(qid));
  vehicle_agents_[src.index()].start_query(qid, dst);
  return qid;
}

ServiceStats FloodService::service_stats() const {
  ServiceStats s;
  for (const auto& agent : vehicle_agents_) {
    s.table_records += agent.cache().size();
    s.table_bytes += agent.cache().bytes();
  }
  s.table_bytes += registry_->bytes();
  return s;
}

void FloodService::sample_region_stats(
    const RegionTelemetry& regions, std::vector<std::uint64_t>& table_records,
    std::vector<std::uint64_t>& queue_depth) const {
  // FLOOD keeps only per-vehicle position caches; no serving tier, so queue
  // depth stays zero. Region ids come off the registry's SoA rows, which
  // mirror `regions`' own region_of.
  (void)regions;
  (void)queue_depth;
  for (std::size_t i = 0; i < vehicle_agents_.size(); ++i) {
    const int r = registry_->vehicle_region(VehicleId{i});
    table_records[static_cast<std::size_t>(r)] +=
        vehicle_agents_[i].cache().size();
  }
}

void FloodService::on_moved(VehicleId v, Vec2 before, Vec2 after) {
  vehicle_agents_[v.index()].handle_moved(before, after);
}

Packet FloodService::make_packet(PacketKind kind, NodeId origin,
                                 std::shared_ptr<const PayloadBase> payload) {
  Packet p;
  p.id = packet_ids_.next();
  p.kind = kind;
  p.origin = origin;
  p.origin_pos = registry_->position(origin);
  p.created = sim_->now();
  p.payload = std::move(payload);
  return p;
}

}  // namespace hlsrg
