// World: one fully assembled simulated replica — map, partition, hierarchy,
// mobility, radio, routing, RSUs, protocol, workload. A World owns all of
// its state; replicas running on different threads share nothing mutable.
#pragma once

#include <memory>
#include <optional>

#include "audit/audit_runner.h"
#include "core/hlsrg_service.h"
#include "fault/fault_injector.h"
#include "grid/hierarchy.h"
#include "harness/scenario.h"
#include "infra/rsu_grid.h"
#include "mobility/mobility_model.h"
#include "net/beacons.h"
#include "net/geocast.h"
#include "net/gpsr.h"
#include "net/node_registry.h"
#include "net/radio.h"
#include "net/wired.h"
#include "flood/flood_service.h"
#include "rlsmp/cell_grid.h"
#include "rlsmp/rlsmp_service.h"
#include "roadnet/road_network.h"
#include "service/admission.h"
#include "service/open_loop.h"
#include "sim/simulator.h"

namespace hlsrg {

// The scenario's road network: loaded from cfg.map_file when set, generated
// from cfg.map otherwise. The irregular generator keys its randomness off
// the scenario seed, so replicas with different seeds get different
// irregular maps.
[[nodiscard]] RoadNetwork build_scenario_map(const ScenarioConfig& cfg);

class World {
 public:
  // Builds the world: map, partition, protocol agents, and vehicles at their
  // initial poses. Mobility starts on construction; the query workload is
  // scheduled per `cfg`.
  World(const ScenarioConfig& cfg, Protocol protocol);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Runs to the scenario end; returns the final metrics.
  const RunMetrics& run();
  // Runs to an arbitrary time (for tests / incremental examples).
  void run_until(SimTime t) { sim_.run_until(t); }

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const RoadNetwork& network() const { return net_; }
  [[nodiscard]] const GridHierarchy& hierarchy() const { return *hierarchy_; }
  [[nodiscard]] MobilityModel& mobility() { return *mobility_; }
  [[nodiscard]] LocationService& service() { return *service_; }
  [[nodiscard]] const RunMetrics& metrics() const { return sim_.metrics(); }
  [[nodiscard]] Protocol protocol() const { return protocol_; }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  [[nodiscard]] const RsuGrid* rsus() const { return rsus_.get(); }
  [[nodiscard]] const CellGrid* cells() const { return cells_.get(); }
  // Null unless HELLO beaconing is on.
  [[nodiscard]] const BeaconService* beacons() const { return beacons_.get(); }
  // Null unless the scenario carries a non-empty fault plan.
  [[nodiscard]] const FaultInjector* fault() const { return fault_.get(); }

  // The single query-issuance seam: the scenario workload, the open-loop
  // generator, and fault-retry admission all pass through here (see
  // service/admission.h). Always constructed, even when the tier is
  // disabled — with the default config submit() is a plain issue_query.
  [[nodiscard]] QueryAdmission& admission() { return *admission_; }
  // Null unless the service tier's open-loop generator is configured.
  [[nodiscard]] const OpenLoopGenerator* open_loop() const {
    return open_loop_.get();
  }

  // Number of queries the workload will issue.
  [[nodiscard]] int planned_queries() const { return planned_queries_; }

  // Attaches an event trace (see sim/trace.h); pass nullptr to detach. The
  // log must outlive the World's remaining run time.
  void attach_trace(TraceLog* trace) { sim_.set_trace(trace); }

  // Per-L3-region telemetry (always on; counter increments only, so it is
  // digest-neutral like MetricsRegistry).
  [[nodiscard]] const RegionTelemetry& regions() const { return regions_; }
  // Wall-clock phase profiler; null unless cfg.profile was set.
  [[nodiscard]] const PhaseProfiler* profiler() const {
    return profiler_.get();
  }

  // Node directory (failure injection in tests: silencing a node's sink
  // models an outage — packets to it fall on deaf ears).
  [[nodiscard]] NodeRegistry& registry() { return registry_; }
  // The shared radio (tests flip its reference-density seam to prove the
  // cached contention path is behavior-neutral).
  [[nodiscard]] RadioMedium& medium() { return *medium_; }

  // --- invariant auditing (src/audit) ---------------------------------------
  // The audit view of this world; `hlsrg` is set only under Protocol::kHlsrg.
  [[nodiscard]] AuditScope audit_scope();
  // One full pass of the standard auditors against the current state.
  [[nodiscard]] AuditReport audit_now() { return auditors_.run(audit_scope()); }
  // Like audit_now but aborts with the violation list on any finding. Under
  // -DHLSRG_AUDIT=ON the constructor also schedules this periodically and
  // run() calls it at the end of the horizon.
  void audit_enforce() { auditors_.enforce(audit_scope()); }

 private:
  // Mirrors every mobility write into the registry's SoA vehicle state.
  // Registered FIRST (before any service listener). Mobility hands a whole
  // tick to one listener before the next, so the bridge commits every
  // end-of-tick pose before any protocol agent reacts to the tick:
  //  - each move pushes the end-of-tick pose, velocity, and region.
  //  - the parking callbacks keep the parked flag and velocity in sync
  //    (positions do not change while parked).
  class PoseSyncBridge final : public MovementListener {
   public:
    PoseSyncBridge(NodeRegistry& registry, RegionTelemetry& regions)
        : registry_(&registry), regions_(&regions) {}

    void on_tick_events(std::span<const TickEvent> events) override {
      for (const TickEvent& e : events) {
        if (e.is_pass()) continue;
        registry_->set_position(registry_->vehicle_node(e.v), e.after);
        registry_->set_vehicle_velocity(e.v, e.velocity);
        registry_->set_vehicle_region(e.v, regions_->region_of(e.after));
      }
    }
    void on_parked(VehicleId v) override {
      registry_->set_vehicle_parked(v, true);
      registry_->set_vehicle_velocity(v, Vec2{});
    }
    void on_departed(VehicleId v, bool) override {
      // Fired before the new speed is drawn — the vehicle is still at rest
      // here; the vehicle's next move pushes the real velocity.
      registry_->set_vehicle_parked(v, false);
      registry_->set_vehicle_velocity(v, Vec2{});
    }

   private:
    NodeRegistry* registry_;
    RegionTelemetry* regions_;
  };

  void schedule_workload();
  void schedule_sampler();
  // Resolves the effective fault plan (inline vs file) into cfg_.fault_plan
  // and applies its protocol overrides to cfg_.hlsrg. Ctor-only, before the
  // service is built.
  void resolve_fault_plan();
  // Post-run fault bookkeeping: per-query availability split, stranded-query
  // count, and time-to-recovery per finite window end (see counters.h).
  void finalize_fault_summary();
  // Post-run churn settlement: expires handoff records still in flight at
  // the horizon (closing the conservation law exactly). No-op unless
  // parked-RSU hosting is on.
  void finalize_churn_summary();

  ScenarioConfig cfg_;
  Protocol protocol_;
  Simulator sim_;
  RoadNetwork net_;
  std::unique_ptr<GridHierarchy> hierarchy_;
  RegionTelemetry regions_;
  std::unique_ptr<PhaseProfiler> profiler_;
  NodeRegistry registry_;
  std::unique_ptr<RadioMedium> medium_;
  std::unique_ptr<GpsrRouter> gpsr_;
  std::unique_ptr<BeaconService> beacons_;
  std::unique_ptr<GeocastService> geocast_;
  std::unique_ptr<WiredNetwork> wired_;
  std::unique_ptr<MobilityModel> mobility_;
  PoseSyncBridge pose_bridge_{registry_, regions_};
  std::unique_ptr<RsuGrid> rsus_;
  std::unique_ptr<CellGrid> cells_;
  std::unique_ptr<LocationService> service_;
  std::unique_ptr<QueryAdmission> admission_;
  std::unique_ptr<OpenLoopGenerator> open_loop_;
  std::unique_ptr<FaultInjector> fault_;
  AuditRunner auditors_ = AuditRunner::standard();
  int planned_queries_ = 0;
};

}  // namespace hlsrg
