#include "core/hlsrg_service.h"

#include "core/churn_manager.h"
#include "core/rsu_agent.h"
#include "core/vehicle_agent.h"
#include "util/check.h"

namespace hlsrg {

HlsrgService::HlsrgService(Simulator& sim, const RoadNetwork& net,
                           const GridHierarchy& hierarchy,
                           MobilityModel& mobility, NodeRegistry& registry,
                           RadioMedium& medium, GpsrRouter& gpsr,
                           GeocastService& geocast, WiredNetwork& wired,
                           const RsuGrid* rsus, HlsrgConfig cfg)
    : sim_(&sim),
      net_(&net),
      hierarchy_(&hierarchy),
      mobility_(&mobility),
      registry_(&registry),
      medium_(&medium),
      gpsr_(&gpsr),
      geocast_(&geocast),
      wired_(&wired),
      rsus_(rsus),
      cfg_(cfg),
      rules_(net, hierarchy, mobility.turn_policy(), cfg_),
      tracker_(sim) {
  HLSRG_CHECK_MSG(!cfg_.use_rsus || rsus_ != nullptr,
                  "use_rsus requires a deployed RsuGrid");

  l1_cols_ = hierarchy.cols(GridLevel::kL1);
  const int l1_rows = hierarchy.rows(GridLevel::kL1);
  l1_center_pos_.reserve(static_cast<std::size_t>(l1_cols_) * l1_rows);
  for (int row = 0; row < l1_rows; ++row) {
    for (int col = 0; col < l1_cols_; ++col) {
      l1_center_pos_.push_back(
          hierarchy.center_pos(GridCoord{col, row}, GridLevel::kL1));
    }
  }

  // One radio node + agent per vehicle.
  const std::size_t n = mobility.vehicle_count();
  in_center_.assign(n, 0);
  vehicle_nodes_.reserve(n);
  vehicle_agents_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const VehicleId v{i};
    const NodeId node = registry.add_node(mobility.position(v));
    registry.bind_vehicle(v, node);
    // Parked flag seeded here, not in the world's later seeding pass: the
    // churn manager's initial staffing scan (below) already reads it.
    registry.set_vehicle_parked(v, mobility.parked(v));
    vehicle_nodes_.push_back(node);
    // reserve(n) above makes this the agent's final address — its timers
    // capture `this` at construction time.
    vehicle_agents_.emplace_back(*this, v, node);
    registry.set_sink(node, &vehicle_agents_.back());
    // Center duty for the starting pose; parked vehicles never move, so
    // they would otherwise never serve.
    update_center_duty(v, mobility.position(v));
  }

  // RSU agents (sinks installed onto the infra-registered nodes).
  if (rsus_ != nullptr && cfg_.use_rsus) {
    rsu_agents_.reserve(rsus_->all().size());
    for (const RsuGrid::Rsu& r : rsus_->all()) {
      rsu_agents_.emplace_back(*this, r.id, r.level, r.coord, r.node);
      registry.set_sink(r.node, &rsu_agents_.back());
      rsu_agents_.back().start_timers();
    }
  }

  // Parked-cars-as-RSUs: the ChurnManager binds initial hosts (vacant roles
  // go dark) and reacts to the parking lifecycle. Constructed only when the
  // knob is on, so fixed-RSU runs carry no churn state at all.
  if (cfg_.parked_rsu_hosting) {
    HLSRG_CHECK_MSG(rsus_ != nullptr && cfg_.use_rsus,
                    "parked_rsu_hosting requires RSUs");
    churn_ = std::make_unique<ChurnManager>(*this);
  }

  mobility.add_listener(this);
}

HlsrgService::~HlsrgService() = default;

const HlsrgVehicleAgent& HlsrgService::vehicle_agent(VehicleId v) const {
  return vehicle_agents_[v.index()];
}

HlsrgVehicleAgent& HlsrgService::vehicle_agent(VehicleId v) {
  return vehicle_agents_[v.index()];
}

HlsrgRsuAgent& HlsrgService::rsu_agent(RsuId id) {
  return rsu_agents_[id.index()];
}

QueryTracker::QueryId HlsrgService::issue_query(VehicleId src,
                                                VehicleId dst) {
  HLSRG_CHECK(src.index() < vehicle_agents_.size());
  HLSRG_CHECK(dst.index() < vehicle_agents_.size());
  const QueryTracker::QueryId qid = tracker_.issue(src, dst);
  // Everything the source agent does now (lookup, election, GPSR send)
  // nests under the query's root span.
  SpanScope scope(*sim_, tracker_.span_of(qid));
  vehicle_agents_[src.index()].start_query(qid, dst);
  return qid;
}

void HlsrgService::set_rsu_up(RsuId id, bool up) {
  if (id.index() >= rsu_agents_.size()) return;  // no RSUs (A2 ablation)
  if (churn_ != nullptr) {
    // The churn layer owns role liveness: reboots of vacant roles are
    // refused (there is no host to boot).
    churn_->set_rsu_up(id, up);
    return;
  }
  rsu_agents_[id.index()].set_up(up);
}

void HlsrgService::on_parked(VehicleId v) {
  if (churn_ != nullptr) churn_->on_parked(v);
}

void HlsrgService::on_departed(VehicleId v, bool abrupt) {
  if (churn_ != nullptr) churn_->on_departed(v, abrupt);
}

void HlsrgService::configure_tier(const ServiceTierConfig& cfg) {
  tier_ = cfg;
  for (auto& agent : rsu_agents_) agent.configure_tier(cfg);
}

// The mark horizon H covers the whole retry schedule plus the longest RSU
// lookup queueing; it is unbounded when no admission bound caps that queue
// (DESIGN.md §15).
std::int64_t HlsrgService::mark_epoch() const {
  SimTime h;
  for (int k = 1; k <= cfg_.max_attempts; ++k) h += retry_timeout(cfg_, k);
  if (tier_.enabled && tier_.rsu_lookup_time > SimTime{}) {
    if (tier_.max_outstanding == 0) return 0;
    h += SimTime::from_us(tier_.rsu_lookup_time.us() *
                          static_cast<std::int64_t>(tier_.max_outstanding));
  }
  return QueryState::epoch(sim_->now(), h);
}

std::optional<QueryTracker::QueryId> HlsrgService::serve_cached(
    VehicleId src, VehicleId dst) {
  if (!tier_.enabled || !tier_.caching || rsus_ == nullptr || !cfg_.use_rsus) {
    return std::nullopt;
  }
  // Only the source's home L2 RSU is worth a detour: the first attempt
  // already passes near it, so a warm cache there turns the whole hierarchy
  // walk into one radio round-trip.
  const Vec2 pos = vehicle_pos(src);
  const GridCoord l2 =
      GridHierarchy::parent(hierarchy_->l1_at(pos), GridLevel::kL2);
  const RsuId id = rsus_->rsu_at(l2, GridLevel::kL2);
  HlsrgRsuAgent& agent = rsu_agents_[id.index()];
  if (!agent.up() || !agent.cache_fresh(dst)) return std::nullopt;
  const QueryTracker::QueryId qid = tracker_.issue(src, dst);
  SpanScope scope(*sim_, tracker_.span_of(qid));
  // Route the request straight at the warm RSU. Physics still applies — the
  // request rides GPSR and can be lost, and the retry path then walks the
  // normal hierarchy.
  vehicle_agents_[src.index()].start_query(qid, dst, rsus_->rsu(id).node);
  return qid;
}

ServiceStats HlsrgService::service_stats() const {
  ServiceStats s;
  for (const auto& agent : vehicle_agents_) {
    s.table_records += agent.table().size();
    s.table_bytes += agent.table().bytes();
  }
  for (const auto& agent : rsu_agents_) {
    s.table_records += agent.l2_table().size() + agent.l3_table().size() +
                       agent.full_table().size();
    s.table_bytes += agent.l2_table().bytes() + agent.l3_table().bytes() +
                     agent.full_table().bytes();
  }
  s.table_bytes += registry_->bytes();
  return s;
}

void HlsrgService::sample_region_stats(
    const RegionTelemetry& regions, std::vector<std::uint64_t>& table_records,
    std::vector<std::uint64_t>& queue_depth) const {
  // Vehicle-held L1 tables land in the holder's current region (SoA row,
  // mirrors `regions`' region_of); RSU tables and the batching-window
  // backlog land in the RSU's (fixed) region.
  for (std::size_t i = 0; i < vehicle_agents_.size(); ++i) {
    const int r = registry_->vehicle_region(VehicleId{i});
    table_records[static_cast<std::size_t>(r)] +=
        vehicle_agents_[i].table().size();
  }
  if (rsus_ == nullptr) return;
  for (const RsuGrid::Rsu& rsu : rsus_->all()) {
    const HlsrgRsuAgent& agent = rsu_agents_[rsu.id.index()];
    const auto r = static_cast<std::size_t>(regions.region_of(rsu.pos));
    table_records[r] += agent.l2_table().size() + agent.l3_table().size() +
                        agent.full_table().size();
    queue_depth[r] += agent.pending_batches();
  }
}

void HlsrgService::on_tick_events(std::span<const TickEvent> events) {
  for (const TickEvent& e : events) {
    if (e.is_pass()) {
      vehicle_agents_[e.v.index()].handle_intersection_pass(e.node, e.in_seg,
                                                            e.out_seg);
    } else {
      update_center_duty(e.v, e.after);
    }
  }
}

void HlsrgService::update_center_duty(VehicleId v, Vec2 pos) {
  const GridCoord cell = hierarchy_->l1_at(pos);
  const Vec2 center = l1_center_pos_[static_cast<std::size_t>(cell.row) *
                                         static_cast<std::size_t>(l1_cols_) +
                                     static_cast<std::size_t>(cell.col)];
  const bool now_in = distance(pos, center) <= cfg_.center_radius_m;
  std::uint8_t& in = in_center_[v.index()];
  if (!now_in && in == 0) return;
  HlsrgVehicleAgent& agent = vehicle_agents_[v.index()];
  if (now_in) {
    if (in != 0) {
      if (agent.center_cell() == cell) return;
      // Jumped straight from one center into another: leave the old first.
      in = 0;
      agent.leave_center();
    }
    in = 1;
    agent.enter_center(cell);
  } else {
    in = 0;
    agent.leave_center();
  }
}

void HlsrgService::send_notification(NodeId origin,
                                     const L1Record& target_record,
                                     const QueryPayload& query) {
  auto note = std::make_shared<NotificationPayload>();
  note->query_id = query.query_id;
  note->target = query.target;
  note->src_vehicle = query.src_vehicle;
  note->src_node = query.src_node;
  note->src_pos = query.src_pos;
  const Packet pkt = make_packet(PacketKind::kNotification, origin, note);
  metrics().query_packets_originated++;
  metrics().notifications_sent++;
  // Open until the query settles (the notification has no ACK of its own);
  // the route/flood legs below nest under it.
  const SpanId note_span = sim_->begin_span(
      SpanKind::kNotification, query.target.value(), query.src_vehicle.value(),
      target_record.pos, query.query_id, 1,
      target_record.on_artery ? "artery_corridor" : "l1_grid_flood");
  SpanScope scope(*sim_, note_span);

  if (target_record.on_artery) {
    // Strategy (1): Dv updated from a main artery — geocast along the road
    // in the recorded direction. The recorded position can be far from the
    // server, so the notification is routed there first and the corridor
    // flood starts from whichever node is found nearby.
    const GeocastRegion region = GeocastRegion::corridor(
        target_record.pos, target_record.dir, cfg_.corridor_half_width_m,
        cfg_.search_ahead_m, cfg_.corridor_behind_m);
    gpsr_->send(
        origin, target_record.pos, std::nullopt, pkt,
        &metrics().query_transmissions,
        /*deliver=*/
        [this, pkt, region](NodeId at) {
          geocast_->flood(at, pkt, region, &metrics().query_transmissions);
        },
        /*fail=*/{}, /*delivery_radius=*/cfg_.center_radius_m * 2.0);
  } else {
    // Strategy (2): Dv updated from a normal road — "still driving within
    // this Level 1 grid"; flood the grid.
    const GeocastRegion region = GeocastRegion::from_box(
        hierarchy_->cell_box(target_record.l1, GridLevel::kL1),
        /*margin=*/cfg_.corridor_half_width_m);
    geocast_->flood(origin, pkt, region, &metrics().query_transmissions);
  }
}

Packet HlsrgService::make_packet(PacketKind kind, NodeId origin,
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
