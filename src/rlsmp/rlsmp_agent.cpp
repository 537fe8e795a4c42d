#include "rlsmp/rlsmp_agent.h"

#include "rlsmp/rlsmp_service.h"
#include "util/check.h"

namespace hlsrg {

// Radius around a cell center within which vehicles act as the cell
// leader / LSC storage; matched to HLSRG's center radius for fairness.
constexpr double kLeaderRadiusM = 150.0;
// Table freshness at leaders and LSCs.
constexpr SimTime kEntryExpiry = SimTime::from_min(2.2);
// Source-side failure deadline; RLSMP has no retry path, so an unanswered
// query fails when this expires (long enough for a few spiral legs).
constexpr SimTime kRlsmpAckTimeout = SimTime::from_sec(15.0);

RlsmpVehicleAgent::RlsmpVehicleAgent(RlsmpService& service, VehicleId vehicle,
                                     NodeId node)
    : svc_(&service), vehicle_(vehicle), node_(node) {
  const double boot = svc_->sim().protocol_rng().uniform(0.5, 5.0);
  svc_->sim().schedule_after(SimTime::from_sec(boot),
                             [this] { send_initial_update(); });
  // Establish leader-duty status for the starting position (parked vehicles
  // never fire handle_moved).
  const Vec2 here = svc_->vehicle_pos(vehicle_);
  handle_moved(here, here);
}

void RlsmpVehicleAgent::send_initial_update() {
  const CellCoord cell = svc_->cells().cell_at(svc_->vehicle_pos(vehicle_));
  auto payload = std::make_shared<CellUpdatePayload>();
  payload->record = CellRecord{vehicle_, svc_->vehicle_pos(vehicle_),
                               svc_->sim().now(), cell};
  payload->old_cell = cell;
  payload->cell_changed = false;
  svc_->metrics().update_packets_originated++;
  svc_->sim().count_region_update(payload->record.pos);
  svc_->metrics().update_transmissions++;
  const int receivers = svc_->medium().broadcast(
      node_, svc_->make_packet(PacketKind::kCellUpdate, node_, payload));
  svc_->sim().instant_span(SpanKind::kUpdate, SpanStatus::kOk,
                           vehicle_.value(), kNoQuery, payload->record.pos,
                           kNoQuery, -1, "ignition", receivers);
}

bool RlsmpVehicleAgent::lsc_duty() const {
  if (!in_leader_) return false;
  const CellGrid& g = svc_->cells();
  return leader_cell_ == g.lsc_cell(g.cluster_of(leader_cell_));
}

void RlsmpVehicleAgent::purge_tables() {
  const SimTime now = svc_->sim().now();
  cell_table_.purge(now, kEntryExpiry);
  cluster_table_.purge(now, kEntryExpiry);
}

// ---------------------------------------------------------------------------
// Updates: one per cell crossing (the behaviour the paper criticizes).
// ---------------------------------------------------------------------------

void RlsmpVehicleAgent::handle_moved(Vec2 before, Vec2 after) {
  const CellGrid& g = svc_->cells();
  const CellCoord old_cell = g.cell_at(before);
  const CellCoord new_cell = g.cell_at(after);
  if (!(old_cell == new_cell)) send_cell_update(old_cell, new_cell);

  // Leader-region bookkeeping (same dwell mechanics as HLSRG centers).
  const CellCoord cell = new_cell;
  const bool now_in = distance(after, g.cell_center(cell)) <= kLeaderRadiusM;
  if (now_in && (!in_leader_ || !(cell == leader_cell_))) {
    if (in_leader_) leave_leader_region();
    in_leader_ = true;
    leader_cell_ = cell;
  } else if (!now_in && in_leader_) {
    leave_leader_region();
  }
}

void RlsmpVehicleAgent::send_cell_update(CellCoord old_cell,
                                         CellCoord new_cell) {
  auto payload = std::make_shared<CellUpdatePayload>();
  payload->record = CellRecord{vehicle_, svc_->vehicle_pos(vehicle_),
                               svc_->sim().now(), new_cell};
  payload->old_cell = old_cell;
  payload->cell_changed = true;
  svc_->metrics().update_packets_originated++;
  svc_->sim().count_region_update(payload->record.pos);
  svc_->metrics().update_transmissions++;
  const int receivers = svc_->medium().broadcast(
      node_, svc_->make_packet(PacketKind::kCellUpdate, node_, payload));
  svc_->sim().instant_span(SpanKind::kUpdate, SpanStatus::kOk,
                           vehicle_.value(), kNoQuery, payload->record.pos,
                           kNoQuery, -1, "cell_crossing", receivers);
}

void RlsmpVehicleAgent::leave_leader_region() {
  HLSRG_CHECK(in_leader_);
  const bool was_lsc = lsc_duty();
  in_leader_ = false;
  purge_tables();
  if (!cell_table_.empty() || !cluster_table_.empty()) {
    auto payload = std::make_shared<LeaderHandoffPayload>();
    payload->cell = leader_cell_;
    payload->cell_records = cell_table_.snapshot();
    payload->is_lsc = was_lsc;
    if (was_lsc) payload->cluster_records = cluster_table_.snapshot();
    svc_->metrics().aggregation_packets++;
    svc_->metrics().aggregation_transmissions++;
    svc_->medium().broadcast(
        node_, svc_->make_packet(PacketKind::kLeaderHandoff, node_, payload));
  }
  // The duty has ended: hand the tables' memory back (see
  // FreshnessTable::release).
  cell_table_.release();
  cluster_table_.release();
}

// ---------------------------------------------------------------------------
// Cell-leader aggregation toward the LSC.
// ---------------------------------------------------------------------------

void RlsmpVehicleAgent::aggregation_tick(std::int64_t period_index) {
  if (!in_leader_) return;
  purge_tables();
  if (cell_table_.empty()) return;

  const CellGrid& g = svc_->cells();
  const CellCoord lsc = g.lsc_cell(g.cluster_of(leader_cell_));
  if (leader_cell_ == lsc) {
    // This cell *is* the LSC cell: fold the local table into the cluster
    // table directly, no radio needed.
    cluster_table_.merge(cell_table_.unsorted_records());
    return;
  }
  if (heard_push_period_ == period_index) return;  // peer already pushed

  // Claim the push so leader-region peers stand down this period.
  auto claim = std::make_shared<PushClaimPayload>();
  claim->cell = leader_cell_;
  claim->period_index = period_index;
  svc_->metrics().aggregation_transmissions++;
  svc_->medium().broadcast(node_, svc_->make_packet(PacketKind::kPushClaim, node_, claim));

  auto payload = std::make_shared<CellSummaryPayload>();
  payload->cell = leader_cell_;
  payload->records = cell_table_.snapshot();
  svc_->metrics().aggregation_packets++;
  svc_->gpsr().send(node_, g.cell_center(lsc), std::nullopt,
                    svc_->make_packet(PacketKind::kCellSummary, node_, payload),
                    &svc_->metrics().aggregation_transmissions,
                    /*deliver=*/{}, /*fail=*/{},
                    /*delivery_radius=*/kLeaderRadiusM);
}

// ---------------------------------------------------------------------------
// Packet dispatch
// ---------------------------------------------------------------------------

void RlsmpVehicleAgent::on_receive(const Packet& packet, NodeId /*from*/) {
  switch (packet.kind) {
    case PacketKind::kCellUpdate: {
      if (!in_leader_) return;
      const auto& u = payload_as<CellUpdatePayload>(packet);
      if (u.record.cell == leader_cell_) {
        cell_table_.record(u.record);
      } else if (u.cell_changed && u.old_cell == leader_cell_) {
        cell_table_.erase(u.record.vehicle);
      }
      return;
    }
    case PacketKind::kCellSummary: {
      if (!lsc_duty()) return;
      const auto& s = payload_as<CellSummaryPayload>(packet);
      const CellGrid& g = svc_->cells();
      if (!(g.cluster_of(s.cell) == g.cluster_of(leader_cell_))) return;
      cluster_table_.merge(s.records);
      return;
    }
    case PacketKind::kPushClaim: {
      const auto& c = payload_as<PushClaimPayload>(packet);
      if (in_leader_ && c.cell == leader_cell_) {
        heard_push_period_ = c.period_index;
      }
      return;
    }
    case PacketKind::kLeaderHandoff: {
      if (!in_leader_) return;
      const auto& h = payload_as<LeaderHandoffPayload>(packet);
      if (!(h.cell == leader_cell_)) return;
      cell_table_.merge(h.cell_records);
      if (h.is_lsc && lsc_duty()) cluster_table_.merge(h.cluster_records);
      return;
    }
    case PacketKind::kRlsmpQuery: {
      const auto& q = payload_as<RlsmpQueryPayload>(packet);
      if (q.to_cell_leader) {
        handle_cell_leader_query(q);
      } else {
        handle_lsc_query(packet);
      }
      return;
    }
    case PacketKind::kRlsmpBatch: {
      if (!lsc_duty()) return;
      const auto& batch = payload_as<RlsmpBatchPayload>(packet);
      // Relay the batch once within the LSC region, then run the normal
      // per-query election machinery for every query it carries.
      if (queries_.mark(QueryState::Mark::kBatchRelayed, packet.id.value(),
                        svc_->mark_epoch())) {
        svc_->metrics().query_transmissions++;
        svc_->medium().broadcast(node_, packet);
      }
      for (const RlsmpQueryPayload& q : batch.queries) {
        if (queries_.election_open(q.query_id, svc_->mark_epoch())) {
          run_election(q);
        }
      }
      return;
    }
    case PacketKind::kLscClaim: {
      const auto& c = payload_as<LscClaimPayload>(packet);
      if (auto timer =
              queries_.settle_election(c.query_id, svc_->mark_epoch())) {
        svc_->sim().cancel(*timer);
      }
      return;
    }
    case PacketKind::kRlsmpNotify: {
      const auto& n = payload_as<RlsmpNotifyPayload>(packet);
      if (n.target == vehicle_) answer_notify(n);
      return;
    }
    case PacketKind::kRlsmpAck: {
      const auto& a = payload_as<RlsmpAckPayload>(packet);
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

// ---------------------------------------------------------------------------
// LSC query handling: election, table lookup, spiral forwarding.
// ---------------------------------------------------------------------------

void RlsmpVehicleAgent::handle_lsc_query(const Packet& packet) {
  if (!lsc_duty()) return;
  const auto& q = payload_as<RlsmpQueryPayload>(packet);
  const std::int64_t epoch = svc_->mark_epoch();
  if (!queries_.election_open(q.query_id, epoch)) return;
  if (queries_.mark(QueryState::Mark::kRelayed, q.query_id, epoch)) {
    svc_->metrics().query_transmissions++;
    svc_->medium().broadcast(node_, packet);
  }
  run_election(q);
}

void RlsmpVehicleAgent::run_election(const RlsmpQueryPayload& query) {
  purge_tables();
  const bool holder = cluster_table_.find(query.target) != nullptr;
  queries_.arm_election(
      query.query_id,
      svc_->sim().schedule_after(
          election_backoff(svc_->sim().protocol_rng(), holder),
          [this, query] { lsc_win_election(query.query_id, query); }));
}

void RlsmpVehicleAgent::lsc_win_election(QueryId qid,
                                         const RlsmpQueryPayload& query) {
  // Election timers fire with no span context; re-anchor to the query root.
  SpanScope anchor(svc_->sim(), svc_->tracker().span_of(qid));
  queries_.settle_election(qid, svc_->mark_epoch());
  auto claim = std::make_shared<LscClaimPayload>();
  claim->query_id = qid;
  svc_->metrics().query_transmissions++;
  svc_->medium().broadcast(node_, svc_->make_packet(PacketKind::kLscClaim, node_, claim));

  purge_tables();
  if (const CellRecord* found = cluster_table_.find(query.target)) {
    // A copy: find() pointers do not outlive an insert into the table.
    const CellRecord rec = *found;
    svc_->metrics().server_lookup_hits++;
    svc_->sim().count_region_served(svc_->vehicle_pos(vehicle_));
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kOk,
                             vehicle_.value(), query.target.value(),
                             svc_->vehicle_pos(vehicle_), qid, -1,
                             "cluster_table");
    // Known: forward to the cell leader of Dv's cell.
    auto fwd = std::make_shared<RlsmpQueryPayload>(query);
    fwd->to_cell_leader = true;
    fwd->target_cell = rec.cell;
    svc_->gpsr().send(node_, svc_->cells().cell_center(rec.cell), std::nullopt,
                      svc_->make_packet(PacketKind::kRlsmpQuery, node_, fwd),
                      &svc_->metrics().query_transmissions,
                      /*deliver=*/{}, /*fail=*/{},
                      /*delivery_radius=*/kLeaderRadiusM);
    return;
  }
  // Unknown: hold for the aggregation window, then spiral onward in a batch
  // ("the LSC will send the aggregated query packets to others LSC").
  svc_->metrics().server_lookup_misses++;
  svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kFailed,
                           vehicle_.value(), query.target.value(),
                           svc_->vehicle_pos(vehicle_), qid, -1,
                           "cluster_table");
  enqueue_for_spiral(query);
}

void RlsmpVehicleAgent::enqueue_for_spiral(const RlsmpQueryPayload& query) {
  const CellGrid& g = svc_->cells();
  const auto order = g.spiral_order(query.origin_cluster);
  const int next = query.spiral_index + 1;
  if (next >= static_cast<int>(order.size())) return;  // spiral exhausted
  RlsmpQueryPayload fwd = query;
  fwd.spiral_index = next;
  spiral_batch_.push_back(fwd);
  if (!spiral_timer_armed_) {
    spiral_timer_armed_ = true;
    svc_->sim().schedule_after(kRlsmpQueryWait,
                               [this] { flush_spiral_batch(); });
  }
}

void RlsmpVehicleAgent::flush_spiral_batch() {
  spiral_timer_armed_ = false;
  if (spiral_batch_.empty()) return;
  const CellGrid& g = svc_->cells();
  // Group queued queries by the LSC they travel to next; each group shares
  // one batch packet (the aggregation saving the protocol is named for).
  std::vector<RlsmpQueryPayload> pending;
  pending.swap(spiral_batch_);
  while (!pending.empty()) {
    const auto order0 = g.spiral_order(pending.front().origin_cluster);
    const ClusterCoord target =
        order0[static_cast<std::size_t>(pending.front().spiral_index)];
    auto batch = std::make_shared<RlsmpBatchPayload>();
    std::vector<RlsmpQueryPayload> rest;
    for (RlsmpQueryPayload& q : pending) {
      const auto order = g.spiral_order(q.origin_cluster);
      if (order[static_cast<std::size_t>(q.spiral_index)] == target) {
        batch->queries.push_back(std::move(q));
      } else {
        rest.push_back(std::move(q));
      }
    }
    pending.swap(rest);
    svc_->gpsr().send(node_, g.lsc_center(target), std::nullopt,
                      svc_->make_packet(PacketKind::kRlsmpBatch, node_, batch),
                      &svc_->metrics().query_transmissions,
                      /*deliver=*/{}, /*fail=*/{},
                      /*delivery_radius=*/kLeaderRadiusM);
  }
}

// ---------------------------------------------------------------------------
// Cell-leader notification.
// ---------------------------------------------------------------------------

void RlsmpVehicleAgent::handle_cell_leader_query(
    const RlsmpQueryPayload& query) {
  if (!in_leader_ || !(query.target_cell == leader_cell_)) return;
  if (!queries_.mark(QueryState::Mark::kNotifyForwarded, query.query_id,
                     svc_->mark_epoch())) {
    return;
  }
  auto note = std::make_shared<RlsmpNotifyPayload>();
  note->query_id = query.query_id;
  note->target = query.target;
  note->src_vehicle = query.src_vehicle;
  note->src_node = query.src_node;
  note->src_pos = query.src_pos;
  svc_->metrics().query_packets_originated++;
  svc_->metrics().notifications_sent++;
  // Open until the query settles; the cell flood nests under it. The leader
  // handles this off a GPSR delivery, so the propagated context (if any) is
  // the query root.
  const SpanId note_span = svc_->sim().begin_span(
      SpanKind::kNotification, query.target.value(), query.src_vehicle.value(),
      svc_->vehicle_pos(vehicle_), query.query_id, -1, "cell_flood");
  SpanScope scope(svc_->sim(), note_span);
  // Find Dv by flooding its cell (margin covers boundary queueing).
  svc_->geocast().flood(
      node_, svc_->make_packet(PacketKind::kRlsmpNotify, node_, note),
      GeocastRegion::from_box(svc_->cells().cell_box(query.target_cell), 60.0),
      &svc_->metrics().query_transmissions);
}

void RlsmpVehicleAgent::answer_notify(const RlsmpNotifyPayload& notify) {
  if (!queries_.mark(QueryState::Mark::kAnswered, notify.query_id,
                     svc_->mark_epoch())) {
    return;
  }
  auto ack = std::make_shared<RlsmpAckPayload>();
  ack->query_id = notify.query_id;
  ack->responder = vehicle_;
  svc_->metrics().query_packets_originated++;
  svc_->metrics().acks_sent++;
  // ACK leg back to Sv, open until the query settles.
  Simulator& sim = svc_->sim();
  SpanScope anchor(sim, sim.active_span() != kNoSpan
                            ? sim.active_span()
                            : svc_->tracker().span_of(notify.query_id));
  const SpanId ack_span =
      sim.begin_span(SpanKind::kAckLeg, vehicle_.value(),
                     notify.src_vehicle.value(), svc_->vehicle_pos(vehicle_),
                     notify.query_id);
  SpanScope scope(sim, ack_span);
  svc_->gpsr().send(node_, notify.src_pos, notify.src_node,
                    svc_->make_packet(PacketKind::kRlsmpAck, node_, ack),
                    &svc_->metrics().query_transmissions);
}

// ---------------------------------------------------------------------------
// Sv side.
// ---------------------------------------------------------------------------

void RlsmpVehicleAgent::start_query(QueryId qid, VehicleId target) {
  const CellGrid& g = svc_->cells();
  const Vec2 my_pos = svc_->vehicle_pos(vehicle_);
  const ClusterCoord my_cluster = g.cluster_of(g.cell_at(my_pos));

  auto q = std::make_shared<RlsmpQueryPayload>();
  q->query_id = qid;
  q->src_vehicle = vehicle_;
  q->src_node = node_;
  q->src_pos = my_pos;
  q->target = target;
  q->origin_cluster = my_cluster;
  q->spiral_index = 0;
  svc_->metrics().query_packets_originated++;
  svc_->gpsr().send(node_, g.lsc_center(my_cluster), std::nullopt,
                    svc_->make_packet(PacketKind::kRlsmpQuery, node_, q),
                    &svc_->metrics().query_transmissions,
                    /*deliver=*/{}, /*fail=*/{},
                    /*delivery_radius=*/kLeaderRadiusM);

  queries_.arm_retry(
      qid, svc_->sim().schedule_after(kRlsmpAckTimeout, [this, qid] {
        queries_.disarm_retry(qid);
        svc_->tracker().fail(qid);
      }));
}

}  // namespace hlsrg
