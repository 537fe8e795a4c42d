#include "harness/world.h"

#include <cmath>
#include <vector>

#include "core/churn_manager.h"
#include "roadnet/map_io.h"
#include "util/check.h"

namespace hlsrg {

// RLSMP cells per cluster edge. The original protocol uses 9 (81 cells) on
// metro-scale maps; 3 keeps multiple clusters (and thus the spiral) alive
// on the paper's 2 km evaluation map.
constexpr int kRlsmpClusterDim = 3;

RoadNetwork build_scenario_map(const ScenarioConfig& cfg) {
  if (!cfg.map_file.empty()) {
    std::string error;
    RoadNetwork net = load_map_file(cfg.map_file, &error);
    HLSRG_CHECK_MSG(net.intersection_count() > 0, error.c_str());
    return net;
  }
  MapConfig map_cfg = cfg.map;
  if (map_cfg.irregular) map_cfg.seed = cfg.seed;
  return build_manhattan_map(map_cfg);
}

World::World(const ScenarioConfig& cfg, Protocol protocol)
    : cfg_(cfg), protocol_(protocol), sim_(cfg.seed) {
  // Fault plan first: its protocol overrides must land in cfg_.hlsrg before
  // the service snapshots the config.
  resolve_fault_plan();

  net_ = build_scenario_map(cfg_);

  // Road-adapted partition and hierarchy (used by HLSRG; also handy context
  // for examples even under RLSMP).
  hierarchy_ = std::make_unique<GridHierarchy>(
      net_, build_partition(net_, cfg_.partition));

  // Region telemetry mirrors the L1 boundary lines (and thus the exact L3
  // cell arithmetic) of the partition just built. Always attached: feeding
  // it is counter increments only, so it never perturbs digests.
  {
    const Partition& part = hierarchy_->partition();
    std::vector<double> x_edges;
    std::vector<double> y_edges;
    x_edges.reserve(part.x_lines.size());
    y_edges.reserve(part.y_lines.size());
    for (const BoundaryLine& l : part.x_lines) x_edges.push_back(l.coord);
    for (const BoundaryLine& l : part.y_lines) y_edges.push_back(l.coord);
    regions_ = RegionTelemetry(std::move(x_edges), std::move(y_edges));
  }
  sim_.set_regions(&regions_);
  if (cfg_.profile) {
    profiler_ = std::make_unique<PhaseProfiler>();
    sim_.set_profiler(profiler_.get());
  }

  medium_ = std::make_unique<RadioMedium>(sim_, registry_, cfg_.radio);
  gpsr_ = std::make_unique<GpsrRouter>(*medium_, registry_);
  GeocastConfig geocast_cfg = cfg_.geocast;
  if (protocol_ == Protocol::kFlood) {
    // The flooding baseline covers the whole map per flood; the default
    // rebroadcast budget is sized for HLSRG/RLSMP's small regions.
    geocast_cfg.max_transmissions =
        std::max(geocast_cfg.max_transmissions, 4 * cfg_.vehicles);
  }
  geocast_ = std::make_unique<GeocastService>(*medium_, registry_, geocast_cfg);
  wired_ = std::make_unique<WiredNetwork>(sim_, registry_);

  mobility_ = std::make_unique<MobilityModel>(sim_, net_, cfg_.mobility);
  mobility_->place_random_vehicles(cfg_.vehicles);
  // The pose bridge must be the FIRST movement listener: it commits each
  // tick's poses into the registry's SoA arrays before any protocol listener
  // sees the tick, so agents only ever read one end-of-tick snapshot.
  mobility_->add_listener(&pose_bridge_);

  switch (protocol_) {
    case Protocol::kHlsrg: {
      if (cfg_.hlsrg.use_rsus) {
        rsus_ = std::make_unique<RsuGrid>(*hierarchy_, registry_, *wired_);
      }
      service_ = std::make_unique<HlsrgService>(
          sim_, net_, *hierarchy_, *mobility_, registry_, *medium_, *gpsr_,
          *geocast_, *wired_, rsus_.get(), cfg_.hlsrg);
      break;
    }
    case Protocol::kRlsmp: {
      cells_ = std::make_unique<CellGrid>(
          net_.bounds(), cfg_.rlsmp.cell_size_m, cfg_.rlsmp.origin_offset_m,
          kRlsmpClusterDim);
      service_ = std::make_unique<RlsmpService>(sim_, *mobility_, registry_,
                                                *medium_, *gpsr_, *geocast_,
                                                *cells_);
      break;
    }
    case Protocol::kFlood: {
      service_ = std::make_unique<FloodService>(sim_, *mobility_, registry_,
                                                *medium_, *gpsr_, *geocast_,
                                                net_.bounds(), cfg_.flood);
      break;
    }
  }

  // Seed the registry's vehicle SoA rows (the service just bound them):
  // initial velocity, parked flag, and L3 region. From here on the pose
  // bridge keeps them current.
  for (int i = 0; i < cfg_.vehicles; ++i) {
    const VehicleId v{static_cast<std::uint32_t>(i)};
    const bool parked = mobility_->parked(v);
    registry_.set_vehicle_parked(v, parked);
    registry_.set_vehicle_velocity(
        v, parked ? Vec2{} : mobility_->heading(v) * mobility_->state(v).speed);
    registry_.set_vehicle_region(v,
                                 regions_.region_of(mobility_->position(v)));
  }

  // Service tier: the admission seam is always built (it is the single
  // query-issuance entry point), but with an inactive tier it neither draws
  // RNG nor schedules events, so seed-level behavior matches older builds.
  service_->configure_tier(cfg_.service);
  admission_ = std::make_unique<QueryAdmission>(sim_, *service_, cfg_.service);
  if (cfg_.service.open_loop_rate_per_sec > 0.0 ||
      cfg_.service.open_loop_ramp_per_sec2 > 0.0) {
    open_loop_ = std::make_unique<OpenLoopGenerator>(
        sim_, *admission_, cfg_.service, cfg_.vehicles,
        std::max(1, std::min(cfg_.hotspot_targets, cfg_.vehicles - 1)));
  }

  // Beacon-based neighbor discovery must start after every node (vehicles
  // and RSUs) is registered.
  if (cfg_.beacons.enabled) {
    beacons_ = std::make_unique<BeaconService>(*medium_, registry_,
                                               cfg_.beacons);
    gpsr_->set_beacons(beacons_.get());
  }

  // Fault injection: only a non-empty plan builds an injector (an empty
  // plan must leave the world event-for-event identical to a fault-unaware
  // build — see fault_injector.h).
  if (!cfg_.fault_plan.empty()) {
    fault_ = std::make_unique<FaultInjector>(sim_, cfg_.fault_plan,
                                             wired_.get(), medium_.get(),
                                             rsus_.get());
    if (protocol_ == Protocol::kHlsrg) {
      auto* hlsrg = static_cast<HlsrgService*>(service_.get());
      fault_->set_rsu_hook(
          [hlsrg](RsuId id, bool up) { hlsrg->set_rsu_up(id, up); });
      if (fault_->has_gps_noise()) {
        hlsrg->set_gps_transform(
            [this](Vec2 p) { return fault_->observed_pos(p); });
      }
    }
    // Burst departure (churn windows): each parked vehicle inside the box
    // abruptly departs with probability depart_fraction. Draws come off the
    // injector's fault RNG, vehicles scanned in index order, so the burst
    // never perturbs the mobility stream. Protocol-agnostic — HLSRG reacts
    // through its MovementListener.
    fault_->set_churn_hook([this](const FaultWindow& w, Rng& rng) {
      // Candidate scan off the registry's SoA arrays (flag + position reads,
      // no mobility geometry) — in sync because window edges fire between
      // mobility ticks.
      for (std::size_t i = 0; i < registry_.vehicle_count(); ++i) {
        const VehicleId v{i};
        if (!registry_.vehicle_parked(v)) continue;
        if (w.has_box && !w.box.contains(registry_.vehicle_position(v))) {
          continue;
        }
        if (!rng.chance(w.depart_fraction)) continue;
        mobility_->force_depart(v);
      }
    });
    fault_->arm(cfg_.end_time());
    sim_.metrics().fault_plan_digest = cfg_.fault_plan.digest();
  }

  mobility_->start();
  schedule_workload();
  if (open_loop_ != nullptr) {
    open_loop_->start(cfg_.warmup, cfg_.warmup + cfg_.query_window);
  }
  if (cfg_.sample_interval > SimTime{}) schedule_sampler();

#ifdef HLSRG_AUDIT_ENABLED
  // HLSRG_AUDIT=ON: enforce every invariant periodically during the run so a
  // corruption aborts at the audit tick where it first becomes visible.
  auditors_.attach_periodic(sim_, audit_scope(), SimTime::from_sec(10.0),
                            cfg_.end_time());
#endif
}

AuditScope World::audit_scope() {
  AuditScope scope;
  scope.sim = &sim_;
  scope.net = &net_;
  scope.hierarchy = hierarchy_.get();
  scope.mobility = mobility_.get();
  scope.service = service_.get();
  if (protocol_ == Protocol::kHlsrg) {
    scope.hlsrg = static_cast<const HlsrgService*>(service_.get());
  }
  return scope;
}

void World::schedule_workload() {
  const int n = cfg_.vehicles;
  if (n < 2) return;
  Rng& rng = sim_.workload_rng();

  if (cfg_.workload != ScenarioConfig::WorkloadKind::kOneShot) {
    // Poisson arrivals across the query window; hotspot skews destinations
    // toward a small popular set.
    const bool hotspot =
        cfg_.workload == ScenarioConfig::WorkloadKind::kHotspot;
    const int hot = std::max(1, std::min(cfg_.hotspot_targets, n - 1));
    double t = cfg_.warmup.sec();
    const double end = (cfg_.warmup + cfg_.query_window).sec();
    while (true) {
      // Exponential inter-arrival via inverse transform.
      t += -std::log(1.0 - rng.uniform()) / cfg_.poisson_rate_per_sec;
      if (t >= end) break;
      const VehicleId src{
          static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
      VehicleId dst;
      do {
        dst = hotspot ? VehicleId{static_cast<std::uint32_t>(
                            rng.uniform_int(0, hot - 1))}
                      : VehicleId{static_cast<std::uint32_t>(
                            rng.uniform_int(0, n - 1))};
      } while (dst == src);
      sim_.schedule_at(SimTime::from_sec(t),
                       [this, src, dst] { admission_->submit(src, dst); });
      ++planned_queries_;
    }
    return;
  }

  const int sources = std::max(
      0, static_cast<int>(cfg_.source_fraction * n + 0.5));
  if (sources == 0) return;
  // Distinct sources via partial Fisher-Yates over vehicle indices.
  std::vector<std::uint32_t> ids(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
  for (int i = 0; i < sources; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(i, n - 1));
    std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
  }
  for (int i = 0; i < sources; ++i) {
    const VehicleId src{ids[static_cast<std::size_t>(i)]};
    // Destination: any vehicle other than the source (the paper picks the
    // queried vehicles randomly as well).
    VehicleId dst;
    do {
      dst = VehicleId{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    } while (dst == src);
    const SimTime when =
        cfg_.warmup + SimTime::from_us(static_cast<std::int64_t>(
                          rng.uniform(0.0, cfg_.query_window.sec()) * 1e6));
    sim_.schedule_at(when, [this, src, dst] { admission_->submit(src, dst); });
    ++planned_queries_;
  }
}

void World::resolve_fault_plan() {
  if (cfg_.fault_plan.empty() && !cfg_.fault_plan_file.empty()) {
    std::string error;
    const bool ok =
        FaultPlan::load(cfg_.fault_plan_file, &cfg_.fault_plan, &error);
    HLSRG_CHECK_MSG(ok, error.c_str());
  }
  if (cfg_.fault_seed != 0) cfg_.fault_plan.fault_seed = cfg_.fault_seed;
  const FaultProtocolOverrides& ov = cfg_.fault_plan.overrides;
  if (!ov.any()) return;
  HlsrgConfig& h = cfg_.hlsrg;
  if (ov.max_attempts) {
    h.max_attempts = std::max(1, std::min(*ov.max_attempts, 8));
  }
  if (ov.ack_timeout_sec) h.ack_timeout = SimTime::from_sec(*ov.ack_timeout_sec);
  if (ov.retry_backoff_base) h.retry_backoff_base = *ov.retry_backoff_base;
  if (ov.retry_backoff_cap_sec) {
    h.retry_backoff_cap = SimTime::from_sec(*ov.retry_backoff_cap_sec);
  }
  if (ov.l1_expiry_sec) h.l1_expiry = SimTime::from_sec(*ov.l1_expiry_sec);
  if (ov.l2_expiry_sec) h.l2_expiry = SimTime::from_sec(*ov.l2_expiry_sec);
  if (ov.l3_expiry_sec) h.l3_expiry = SimTime::from_sec(*ov.l3_expiry_sec);
}

void World::finalize_fault_summary() {
  if (fault_ == nullptr) return;
  RunMetrics& m = sim_.metrics();
  QueryTracker& tracker = service_->tracker();
  const std::size_t n = tracker.count();
  for (QueryTracker::QueryId id = 0; id < n; ++id) {
    if (!tracker.settled(id)) {
      // A query neither succeeded nor failed by the horizon. The
      // AvailabilityAuditor separately proves a retry is still armed for it
      // (it was not silently lost); here it just counts as stranded.
      m.queries_stranded++;
      continue;
    }
    if (fault_->fault_active_at(tracker.issued_at(id))) {
      m.fault_queries_issued++;
      if (tracker.succeeded(id)) m.fault_queries_ok++;
    }
  }
  // Time-to-recovery: for each finite window end T, the delay until the
  // first query success completing at or after T. Windows nothing recovered
  // after (no later success) are left out of the average.
  for (SimTime end : fault_->finite_window_ends()) {
    SimTime best;
    bool found = false;
    for (QueryTracker::QueryId id = 0; id < n; ++id) {
      if (!tracker.succeeded(id)) continue;
      const SimTime done = tracker.completed_at(id);
      if (done < end) continue;
      const SimTime delta = done - end;
      if (!found || delta < best) {
        best = delta;
        found = true;
      }
    }
    if (found) {
      m.recovery_time_us += best.us();
      m.recovery_windows++;
    }
  }
}

void World::schedule_sampler() {
  // Periodic observability snapshot (trace/metrics.h time series). Samples
  // read state only — no RNG draws — so enabling them cannot perturb the
  // event stream or the determinism digests.
  sim_.schedule_after(cfg_.sample_interval, [this] {
    MetricsRegistry& obs = sim_.observability();
    const double now_sec = sim_.now().sec();
    const RunMetrics& m = sim_.metrics();
    obs.sample("world.live_queries", now_sec,
               static_cast<double>(m.queries_issued - m.queries_succeeded -
                                   m.queries_failed));
    obs.sample("world.pending_events", now_sec,
               static_cast<double>(sim_.queue().size()));
    obs.sample("world.table_records", now_sec,
               static_cast<double>(service_->service_stats().table_records));
    if (cfg_.service.active()) {
      obs.sample("service.cache_hits", now_sec,
                 static_cast<double>(m.cache_hits));
      obs.sample("service.batch_flushes", now_sec,
                 static_cast<double>(m.batch_flushes));
      obs.sample("service.shed_queries", now_sec,
                 static_cast<double>(m.queries_shed + m.retries_shed));
      obs.sample("service.outstanding", now_sec,
                 static_cast<double>(service_->tracker().outstanding()));
    }
    if (fault_ != nullptr) {
      // Availability over time: the success rate among settled queries so
      // far. The chaos benches read the dip and recovery off this series.
      const std::uint64_t settled = m.queries_succeeded + m.queries_failed;
      obs.sample("avail.success_rate", now_sec,
                 settled == 0
                     ? 1.0
                     : static_cast<double>(m.queries_succeeded) / settled);
    }
    // Per-region gauges: vehicle population by current position, plus the
    // service's table/backlog attribution (see sample_region_stats).
    const auto regions = static_cast<std::size_t>(regions_.region_count());
    std::vector<std::uint64_t> vehicles(regions, 0);
    std::vector<std::uint64_t> table_records(regions, 0);
    std::vector<std::uint64_t> queue_depth(regions, 0);
    // Region ids come straight off the SoA row (maintained by the pose
    // bridge with the same region_of the old per-sample recompute used).
    for (int v = 0; v < cfg_.vehicles; ++v) {
      const int r =
          registry_.vehicle_region(VehicleId{static_cast<std::uint32_t>(v)});
      ++vehicles[static_cast<std::size_t>(r)];
    }
    service_->sample_region_stats(regions_, table_records, queue_depth);
    regions_.push_sample(now_sec, std::move(vehicles),
                         std::move(table_records), std::move(queue_depth));
    if (sim_.now() + cfg_.sample_interval <= cfg_.end_time()) {
      schedule_sampler();
    }
  });
}

void World::finalize_churn_summary() {
  if (protocol_ != Protocol::kHlsrg) return;
  ChurnManager* churn = static_cast<HlsrgService*>(service_.get())->churn();
  if (churn == nullptr) return;
  churn->expire_in_flight();
}

const RunMetrics& World::run() {
  sim_.run_until(cfg_.end_time());
  finalize_fault_summary();
  finalize_churn_summary();
#ifdef HLSRG_AUDIT_ENABLED
  audit_enforce();
#endif
  return sim_.metrics();
}

}  // namespace hlsrg
