// Flooding-based location service — the first category in the paper's
// related-work taxonomy ("each node broadcasts its location information
// packet to the network... very wasteful in terms of the networks total
// bandwidth", citing DREAM).
//
// Implemented faithfully to the category: vehicles flood distance-triggered
// location packets over the whole map; every vehicle caches every record;
// queries answer from the local cache and confirm with a GPSR probe + ACK,
// falling back to a network-wide reactive query flood on a cache miss (the
// LAR-style reactive variant, the taxonomy's other flavor). It exists to
// quantify the overhead blow-up the paper argues motivates rendezvous-based
// designs like HLSRG.
#pragma once

#include <memory>
#include <vector>

#include "core/location_service.h"
#include "core/query_state.h"
#include "flood/flood_config.h"
#include "geom/aabb.h"
#include "mobility/mobility_model.h"
#include "net/geocast.h"
#include "net/gpsr.h"
#include "net/radio.h"
#include "sim/simulator.h"

namespace hlsrg {

class FloodVehicleAgent;

class FloodService final : public LocationService, public MovementListener {
 public:
  FloodService(Simulator& sim, MobilityModel& mobility, NodeRegistry& registry,
               RadioMedium& medium, GpsrRouter& gpsr, GeocastService& geocast,
               Aabb map_bounds, FloodConfig cfg);
  ~FloodService() override;

  // --- LocationService ------------------------------------------------------
  [[nodiscard]] const char* name() const override { return "FLOOD"; }
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
    return PacketKind::kFloodQuery;
  }

  // --- MovementListener -----------------------------------------------------
  void on_moved(VehicleId v, Vec2 before, Vec2 after) override;

  // --- agent context ---------------------------------------------------------
  [[nodiscard]] Simulator& sim() { return *sim_; }
  [[nodiscard]] RunMetrics& metrics() { return sim_->metrics(); }
  [[nodiscard]] const FloodConfig& cfg() const { return cfg_; }
  [[nodiscard]] MobilityModel& mobility() { return *mobility_; }
  [[nodiscard]] RadioMedium& medium() { return *medium_; }
  [[nodiscard]] GpsrRouter& gpsr() { return *gpsr_; }
  [[nodiscard]] GeocastService& geocast() { return *geocast_; }
  [[nodiscard]] const Aabb& map_bounds() const { return map_bounds_; }
  // Epoch of the agents' one-shot query marks (core/query_state.h). Every
  // copy of a query's probes is made within its probe and one reactive
  // retry, two ACK timeouts; that is the mark horizon.
  [[nodiscard]] std::int64_t mark_epoch() const {
    return QueryState::epoch(sim_->now(), kFloodAckTimeout + kFloodAckTimeout);
  }
  [[nodiscard]] Vec2 vehicle_pos(VehicleId v) const {
    return mobility_->position(v);
  }
  [[nodiscard]] Packet make_packet(PacketKind kind, NodeId origin,
                                   std::shared_ptr<const PayloadBase> payload);
  // Out-of-line: the agents are stored by value and indexing the vector
  // needs the complete (forward-declared) type.
  [[nodiscard]] FloodVehicleAgent& vehicle_agent(VehicleId v);

 private:
  Simulator* sim_;
  MobilityModel* mobility_;
  NodeRegistry* registry_;
  RadioMedium* medium_;
  GpsrRouter* gpsr_;
  GeocastService* geocast_;
  Aabb map_bounds_;
  FloodConfig cfg_;
  QueryTracker tracker_;
  PacketIdSource packet_ids_;

  std::vector<NodeId> vehicle_nodes_;
  // By value, reserved to the exact count in the constructor (agents capture
  // `this` in scheduled timers; the vector must never reallocate).
  std::vector<FloodVehicleAgent> vehicle_agents_;
};

}  // namespace hlsrg
