// RLSMP service: the comparison baseline, wired over the same substrates as
// HLSRG (same map, mobility, radio, GPSR, geocast) minus the RSU plane —
// RLSMP is infrastructure-free by design.
#pragma once

#include <memory>
#include <vector>

#include "core/location_service.h"
#include "core/query_state.h"
#include "mobility/mobility_model.h"
#include "net/geocast.h"
#include "net/gpsr.h"
#include "net/radio.h"
#include "rlsmp/cell_grid.h"
#include "rlsmp/rlsmp_config.h"
#include "sim/simulator.h"

namespace hlsrg {

class RlsmpVehicleAgent;

class RlsmpService final : public LocationService, public MovementListener {
 public:
  RlsmpService(Simulator& sim, MobilityModel& mobility, NodeRegistry& registry,
               RadioMedium& medium, GpsrRouter& gpsr, GeocastService& geocast,
               const CellGrid& cells);
  ~RlsmpService() override;

  // --- LocationService ------------------------------------------------------
  [[nodiscard]] const char* name() const override { return "RLSMP"; }
  QueryTracker::QueryId issue_query(VehicleId src, VehicleId dst) override;
  [[nodiscard]] QueryTracker& tracker() override { return tracker_; }
  [[nodiscard]] ServiceStats service_stats() const override;
  [[nodiscard]] Vec2 vehicle_position(VehicleId v) const override {
    return vehicle_pos(v);
  }
  void sample_region_stats(const RegionTelemetry& regions,
                           std::vector<std::uint64_t>& table_records,
                           std::vector<std::uint64_t>& queue_depth)
      const override;
  [[nodiscard]] PacketKind query_kind() const override {
    return PacketKind::kRlsmpQuery;
  }

  // --- MovementListener -----------------------------------------------------
  void on_moved(VehicleId v, Vec2 before, Vec2 after) override;

  // --- agent context ---------------------------------------------------------
  [[nodiscard]] Simulator& sim() { return *sim_; }
  [[nodiscard]] RunMetrics& metrics() { return sim_->metrics(); }
  [[nodiscard]] const CellGrid& cells() const { return *cells_; }
  [[nodiscard]] MobilityModel& mobility() { return *mobility_; }
  [[nodiscard]] NodeRegistry& registry() { return *registry_; }
  [[nodiscard]] RadioMedium& medium() { return *medium_; }
  [[nodiscard]] GpsrRouter& gpsr() { return *gpsr_; }
  [[nodiscard]] GeocastService& geocast() { return *geocast_; }
  // Epoch of the agents' one-shot query marks (core/query_state.h).
  // The horizon is a query's whole spiral, every leg bounded by two
  // aggregation windows (the wait itself, then election and GPSR transit).
  [[nodiscard]] std::int64_t mark_epoch() const {
    return QueryState::epoch(
        sim_->now(), SimTime::from_us(2 * kRlsmpQueryWait.us() *
                                      cells_->cluster_cols() *
                                      cells_->cluster_rows()));
  }

  [[nodiscard]] NodeId node_of(VehicleId v) const {
    return vehicle_nodes_[v.index()];
  }
  [[nodiscard]] Vec2 vehicle_pos(VehicleId v) const {
    return mobility_->position(v);
  }
  [[nodiscard]] Packet make_packet(PacketKind kind, NodeId origin,
                                   std::shared_ptr<const PayloadBase> payload);

  // Out-of-line: the agents are stored by value and indexing the vector
  // needs the complete (forward-declared) type.
  [[nodiscard]] RlsmpVehicleAgent& vehicle_agent(VehicleId v);

 private:
  void aggregation_tick(std::int64_t period_index);

  Simulator* sim_;
  MobilityModel* mobility_;
  NodeRegistry* registry_;
  RadioMedium* medium_;
  GpsrRouter* gpsr_;
  GeocastService* geocast_;
  const CellGrid* cells_;
  QueryTracker tracker_;
  PacketIdSource packet_ids_;

  std::vector<NodeId> vehicle_nodes_;
  // By value, reserved to the exact count in the constructor (agents capture
  // `this` in scheduled timers; the vector must never reallocate).
  std::vector<RlsmpVehicleAgent> vehicle_agents_;
};

}  // namespace hlsrg
