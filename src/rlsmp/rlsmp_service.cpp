#include "rlsmp/rlsmp_service.h"

#include "rlsmp/rlsmp_agent.h"
#include "util/check.h"

namespace hlsrg {

// Cell leaders push aggregated summaries to their LSC at this period.
constexpr SimTime kAggregationPeriod = SimTime::from_sec(10.0);

RlsmpService::RlsmpService(Simulator& sim, MobilityModel& mobility,
                           NodeRegistry& registry, RadioMedium& medium,
                           GpsrRouter& gpsr, GeocastService& geocast,
                           const CellGrid& cells)
    : sim_(&sim),
      mobility_(&mobility),
      registry_(&registry),
      medium_(&medium),
      gpsr_(&gpsr),
      geocast_(&geocast),
      cells_(&cells),
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
  sim.schedule_after(kAggregationPeriod, [this] { aggregation_tick(1); });
}

RlsmpService::~RlsmpService() = default;

RlsmpVehicleAgent& RlsmpService::vehicle_agent(VehicleId v) {
  return vehicle_agents_[v.index()];
}

void RlsmpService::aggregation_tick(std::int64_t period_index) {
  // Stagger per-agent pushes within the period so claims can suppress peers.
  for (auto& agent : vehicle_agents_) {
    const double jitter_ms = sim_->protocol_rng().uniform(0.0, 100.0);
    sim_->schedule_after(SimTime::from_ms(jitter_ms),
                         [a = &agent, period_index] {
                           a->aggregation_tick(period_index);
                         });
  }
  sim_->schedule_after(kAggregationPeriod, [this, period_index] {
    aggregation_tick(period_index + 1);
  });
}

QueryTracker::QueryId RlsmpService::issue_query(VehicleId src,
                                                VehicleId dst) {
  HLSRG_CHECK(src.index() < vehicle_agents_.size());
  HLSRG_CHECK(dst.index() < vehicle_agents_.size());
  const QueryTracker::QueryId qid = tracker_.issue(src, dst);
  // Nest the source agent's synchronous work under the query root span.
  SpanScope scope(*sim_, tracker_.span_of(qid));
  vehicle_agents_[src.index()].start_query(qid, dst);
  return qid;
}

ServiceStats RlsmpService::service_stats() const {
  ServiceStats s;
  for (const auto& agent : vehicle_agents_) {
    s.table_records += agent.cell_table().size() + agent.cluster_table().size();
    s.table_bytes += agent.cell_table().bytes() + agent.cluster_table().bytes();
  }
  s.table_bytes += registry_->bytes();
  return s;
}

void RlsmpService::sample_region_stats(
    const RegionTelemetry& regions, std::vector<std::uint64_t>& table_records,
    std::vector<std::uint64_t>& queue_depth) const {
  // All RLSMP state is vehicle-held (cell + cluster tables); there is no
  // fixed serving tier, so queue depth stays zero. Region ids come off the
  // registry's SoA rows, which mirror `regions`' own region_of.
  (void)regions;
  (void)queue_depth;
  for (std::size_t i = 0; i < vehicle_agents_.size(); ++i) {
    const int r = registry_->vehicle_region(VehicleId{i});
    table_records[static_cast<std::size_t>(r)] +=
        vehicle_agents_[i].cell_table().size() +
        vehicle_agents_[i].cluster_table().size();
  }
}

void RlsmpService::on_moved(VehicleId v, Vec2 before, Vec2 after) {
  vehicle_agents_[v.index()].handle_moved(before, after);
}

Packet RlsmpService::make_packet(PacketKind kind, NodeId origin,
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
