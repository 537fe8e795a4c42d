// HLSRG protocol service: wires vehicle agents, RSU agents, and the update /
// collection / query machinery over the substrates (paper chapter 2 end to
// end). One HlsrgService instance runs one protocol world.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/hlsrg_config.h"
#include "core/location_service.h"
#include "core/messages.h"
#include "core/update_rules.h"
#include "grid/hierarchy.h"
#include "infra/rsu_grid.h"
#include "mobility/mobility_model.h"
#include "net/geocast.h"
#include "net/gpsr.h"
#include "net/radio.h"
#include "net/wired.h"
#include "service/service_config.h"
#include "sim/simulator.h"

namespace hlsrg {

class HlsrgVehicleAgent;
class HlsrgRsuAgent;
class ChurnManager;

class HlsrgService final : public LocationService, public MovementListener {
 public:
  // `rsus` may be null (A2 ablation: vehicle-only collection); cfg.use_rsus
  // must then be false. The service registers one radio node per vehicle,
  // installs itself as a mobility listener, installs RSU sinks, and starts
  // the RSU timers.
  HlsrgService(Simulator& sim, const RoadNetwork& net,
               const GridHierarchy& hierarchy, MobilityModel& mobility,
               NodeRegistry& registry, RadioMedium& medium, GpsrRouter& gpsr,
               GeocastService& geocast, WiredNetwork& wired,
               const RsuGrid* rsus, HlsrgConfig cfg);
  ~HlsrgService() override;

  // --- LocationService ------------------------------------------------------
  [[nodiscard]] const char* name() const override { return "HLSRG"; }
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
    return PacketKind::kQueryRequest;
  }
  void configure_tier(const ServiceTierConfig& cfg) override;
  void on_overload(bool overloaded) override { overloaded_ = overloaded; }
  std::optional<QueryTracker::QueryId> serve_cached(VehicleId src,
                                                    VehicleId dst) override;

  // --- MovementListener -----------------------------------------------------
  // Passes go to the vehicle's update rules; each move re-checks center duty
  // (paper 2.2.2) and calls into the agent only when the vehicle is, or
  // was, inside a center radius.
  void on_tick_events(std::span<const TickEvent> events) override;
  // Parking lifecycle (forwarded to the ChurnManager when hosting is on).
  void on_parked(VehicleId v) override;
  void on_departed(VehicleId v, bool abrupt) override;

  // --- context shared with agents --------------------------------------------
  [[nodiscard]] Simulator& sim() { return *sim_; }
  [[nodiscard]] RunMetrics& metrics() { return sim_->metrics(); }
  [[nodiscard]] const HlsrgConfig& cfg() const { return cfg_; }
  [[nodiscard]] const RoadNetwork& network() const { return *net_; }
  [[nodiscard]] const GridHierarchy& hierarchy() const { return *hierarchy_; }
  [[nodiscard]] MobilityModel& mobility() { return *mobility_; }
  [[nodiscard]] NodeRegistry& registry() { return *registry_; }
  [[nodiscard]] RadioMedium& medium() { return *medium_; }
  [[nodiscard]] GpsrRouter& gpsr() { return *gpsr_; }
  [[nodiscard]] GeocastService& geocast() { return *geocast_; }
  [[nodiscard]] WiredNetwork& wired() { return *wired_; }
  [[nodiscard]] const RsuGrid* rsus() const { return rsus_; }
  // Heavy-traffic tier knobs (default-constructed = tier off) and the
  // current admission-control regime; RSU/vehicle agents consult both.
  [[nodiscard]] const ServiceTierConfig& tier() const { return tier_; }
  [[nodiscard]] bool overloaded() const { return overloaded_; }
  // Horizon H of the agents' one-shot query marks (core/query_state.h);
  // zero when unbounded, and the marks then never rotate.
  [[nodiscard]] SimTime mark_horizon() const;
  // Epoch of those marks.
  [[nodiscard]] std::int64_t mark_epoch() const;

  // True while `v` is on grid-center duty: within center_radius_m of its
  // L1 cell's center intersection as of its last move (HlsrgVehicleAgent
  // holds the duty cell).
  [[nodiscard]] bool in_center(VehicleId v) const {
    return in_center_[v.index()] != 0;
  }
  [[nodiscard]] NodeId node_of(VehicleId v) const {
    return vehicle_nodes_[v.index()];
  }
  [[nodiscard]] Vec2 vehicle_pos(VehicleId v) const {
    return mobility_->position(v);
  }

  // Builds a packet stamped with origin/time.
  [[nodiscard]] Packet make_packet(PacketKind kind, NodeId origin,
                                   std::shared_ptr<const PayloadBase> payload);

  // Acts as Dv's location server for `query` using the stored record: sends
  // the notification by directional road geocast (artery records; routed to
  // the recorded position first) or by flooding the record's L1 grid
  // (normal-road records). Shared by grid-center vehicles and L2 RSUs — the
  // paper lets either act as the location server.
  void send_notification(NodeId origin, const L1Record& target_record,
                         const QueryPayload& query);

  // --- fault layer hooks ------------------------------------------------------
  // Crash/reboot an RSU agent (FaultInjector callback). No-op without RSUs.
  void set_rsu_up(RsuId id, bool up);
  // GPS error model: every position written into a protocol record passes
  // through this transform (identity when unset). Installed by the fault
  // layer for gps_noise windows; the map-matched L1 grid/road fields stay
  // topology-derived and are NOT perturbed.
  void set_gps_transform(std::function<Vec2(Vec2)> transform) {
    gps_transform_ = std::move(transform);
  }
  [[nodiscard]] Vec2 observed_pos(Vec2 p) const {
    return gps_transform_ ? gps_transform_(p) : p;
  }

  // Test/diagnostic access. Out-of-line: the agents are stored by value and
  // indexing the vectors needs their complete types (forward-declared here).
  [[nodiscard]] const HlsrgVehicleAgent& vehicle_agent(VehicleId v) const;
  [[nodiscard]] HlsrgVehicleAgent& vehicle_agent(VehicleId v);
  [[nodiscard]] const UpdateRuleEngine& rules() const { return rules_; }
  [[nodiscard]] const std::vector<HlsrgRsuAgent>& rsu_agents() const {
    return rsu_agents_;
  }
  // Direct agent access for the churn layer (host installs cycle set_up).
  [[nodiscard]] HlsrgRsuAgent& rsu_agent(RsuId id);
  // Non-null iff cfg().parked_rsu_hosting (and RSUs exist).
  [[nodiscard]] ChurnManager* churn() { return churn_.get(); }
  [[nodiscard]] const ChurnManager* churn() const { return churn_.get(); }

 private:
  // Enters, switches, or leaves center duty for `v` at `pos`.
  void update_center_duty(VehicleId v, Vec2 pos);

  Simulator* sim_;
  const RoadNetwork* net_;
  const GridHierarchy* hierarchy_;
  MobilityModel* mobility_;
  NodeRegistry* registry_;
  RadioMedium* medium_;
  GpsrRouter* gpsr_;
  GeocastService* geocast_;
  WiredNetwork* wired_;
  const RsuGrid* rsus_;
  HlsrgConfig cfg_;
  ServiceTierConfig tier_;
  bool overloaded_ = false;
  UpdateRuleEngine rules_;
  QueryTracker tracker_;
  PacketIdSource packet_ids_;

  std::vector<NodeId> vehicle_nodes_;
  // Center intersection position per L1 cell, at row * l1_cols_ + col.
  std::vector<Vec2> l1_center_pos_;
  int l1_cols_ = 0;
  // Center-duty flag per vehicle (1 = on duty); the only copy.
  std::vector<std::uint8_t> in_center_;
  // Agents stored by value: one contiguous block instead of a pointer array
  // plus one heap node per agent. The constructor reserves the exact counts
  // up front and the vectors never grow after that, so the `this` pointers
  // the agents capture in their scheduled timers stay valid for the run.
  std::vector<HlsrgVehicleAgent> vehicle_agents_;
  std::vector<HlsrgRsuAgent> rsu_agents_;
  std::unique_ptr<ChurnManager> churn_;
  std::function<Vec2(Vec2)> gps_transform_;
};

}  // namespace hlsrg
