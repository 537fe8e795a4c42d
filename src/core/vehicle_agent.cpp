#include "core/vehicle_agent.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/hlsrg_service.h"
#include "service/admission.h"
#include "util/check.h"

namespace hlsrg {

HlsrgVehicleAgent::HlsrgVehicleAgent(HlsrgService& service, VehicleId vehicle,
                                     NodeId node)
    : svc_(&service), vehicle_(vehicle), node_(node) {
  // Stagger per-vehicle collection ticks across the push period. The draw
  // fixes this vehicle's phase grid; the timer itself is armed lazily on
  // center entry (arm_collection_timer), not here — vehicles that never pull
  // center duty never hold a standing event.
  const double jitter =
      svc_->sim().protocol_rng().uniform(0.0, kL2PushPeriod.sec());
  collection_phase_ = SimTime::from_sec(jitter);
  // Ignition announcement: a vehicle entering the network updates once so
  // the service can locate it before its first turn/boundary crossing.
  const double boot =
      svc_->sim().protocol_rng().uniform(0.5, 5.0);
  svc_->sim().schedule_after(SimTime::from_sec(boot),
                             [this] { send_initial_update(); });
}

bool HlsrgVehicleAgent::in_center() const {
  return svc_->in_center(vehicle_);
}

void HlsrgVehicleAgent::send_initial_update() {
  const MobilityModel& mob = svc_->mobility();
  const Vec2 pos = mob.position(vehicle_);
  auto payload = std::make_shared<UpdatePayload>();
  L1Record rec;
  rec.vehicle = vehicle_;
  rec.pos = svc_->observed_pos(pos);  // GPS reading; noisy under fault plans
  rec.dir = mob.heading(vehicle_);
  rec.time = svc_->sim().now();
  rec.l1 = svc_->hierarchy().l1_at(pos);
  rec.on_artery =
      svc_->hierarchy().on_selected_artery(mob.current_road(vehicle_));
  payload->record = rec;
  payload->old_l1 = rec.l1;
  payload->grid_changed = false;
  svc_->metrics().update_packets_originated++;
  svc_->sim().count_region_update(rec.pos);
  svc_->metrics().update_transmissions++;
  const int receivers = svc_->medium().broadcast(
      node_, svc_->make_packet(PacketKind::kLocationUpdate, node_, payload));
  svc_->sim().instant_span(SpanKind::kUpdate, SpanStatus::kOk,
                           vehicle_.value(), kNoQuery, rec.pos, kNoQuery, 1,
                           "ignition", receivers);
}

void HlsrgVehicleAgent::arm_collection_timer() {
  if (collection_armed_) return;
  collection_armed_ = true;
  // Next tick on this vehicle's phase grid: smallest
  // collection_phase_ + k * period strictly in the future. Re-arming after a
  // lapse lands on the same instants the old always-on timer would have hit.
  const std::int64_t period = kL2PushPeriod.us();
  const std::int64_t phase = collection_phase_.us();
  const std::int64_t now = svc_->sim().now().us();
  std::int64_t next = phase;
  if (next <= now) next = phase + ((now - phase) / period + 1) * period;
  svc_->sim().schedule_after(SimTime::from_us(next - now),
                             [this] { collection_tick(); });
}

void HlsrgVehicleAgent::collection_tick() {
  if (!in_center()) {
    // Duty ended since the last tick: let the timer lapse. The next center
    // entry re-arms onto the same phase grid.
    collection_armed_ = false;
    return;
  }
  table_.purge(svc_->sim().now(), svc_->cfg().l1_expiry);
  if (!table_.empty()) push_table_to_l2();
  svc_->sim().schedule_after(kL2PushPeriod, [this] { collection_tick(); });
}

void HlsrgVehicleAgent::push_table_to_l2() {
  if (svc_->rsus() == nullptr) return;
  auto payload = std::make_shared<TablePayload>();
  payload->l1 = center_cell_;
  payload->records = table_.unsorted_records();
  const GridCoord l2 = GridHierarchy::parent(center_cell_, GridLevel::kL2);
  const NodeId rsu = svc_->rsus()->node_at(l2, GridLevel::kL2);
  svc_->metrics().aggregation_packets++;
  svc_->sim().instant_span(SpanKind::kTablePush, SpanStatus::kOk,
                           vehicle_.value(), rsu.value(),
                           svc_->vehicle_pos(vehicle_), kNoQuery, 1, nullptr,
                           static_cast<std::int32_t>(payload->records.size()));
  svc_->gpsr().send(node_, svc_->registry().position(rsu), rsu,
                    svc_->make_packet(PacketKind::kTablePush, node_, payload),
                    &svc_->metrics().aggregation_transmissions);
}

L1Record HlsrgVehicleAgent::record_at_crossing(GridCoord l1,
                                               IntersectionId node,
                                               SegmentId out_seg) {
  const RoadNetwork& net = svc_->network();
  const Segment& out = net.segment(out_seg);
  L1Record rec;
  rec.vehicle = vehicle_;
  // GPS reading of the intersection; noisy under fault plans. The l1 cell
  // stays the rule engine's (road-topology) decision — map-matching keeps
  // grid bookkeeping consistent even when the reported fix wanders.
  rec.pos = svc_->observed_pos(net.position(node));
  rec.dir = out.unit_dir;
  rec.time = svc_->sim().now();
  rec.l1 = l1;
  rec.on_artery = svc_->hierarchy().on_selected_artery(out.road);
  return rec;
}

// ---------------------------------------------------------------------------
// Location updates (paper 2.2.1)
// ---------------------------------------------------------------------------

void HlsrgVehicleAgent::handle_intersection_pass(IntersectionId node,
                                                 SegmentId in_seg,
                                                 SegmentId out_seg) {
  const UpdateDecision d = svc_->rules().evaluate(node, in_seg, out_seg);
  if (d.send) send_update(d, node, out_seg);
  // A vehicle that no longer takes part in queries (an ex-center, a past
  // target) would hold its dead marks for the rest of the run; crossings
  // are its one regular touch.
  queries_.expire(svc_->mark_epoch());
}

void HlsrgVehicleAgent::send_update(const UpdateDecision& decision,
                                    IntersectionId node, SegmentId out_seg) {
  auto payload = std::make_shared<UpdatePayload>();
  payload->record = record_at_crossing(decision.new_l1, node, out_seg);
  payload->old_l1 = decision.old_l1;
  payload->grid_changed = decision.grid_changed;
  const Packet pkt = svc_->make_packet(PacketKind::kLocationUpdate, node_, payload);
  svc_->metrics().update_packets_originated++;
  svc_->sim().count_region_update(payload->record.pos);
  svc_->metrics().update_transmissions++;
  // Sent from the intersection (paper 2.2.1), not from the end-of-tick pose
  // the vehicle has since driven on to: stop lines of neighbouring artery
  // intersections sit exactly one radio range apart (DESIGN.md §10).
  const int receivers =
      svc_->medium().broadcast(node_, svc_->network().position(node), pkt);
  svc_->sim().instant_span(SpanKind::kUpdate, SpanStatus::kOk,
                           vehicle_.value(), kNoQuery, payload->record.pos,
                           kNoQuery, 1, "crossing", receivers);
}

// ---------------------------------------------------------------------------
// Grid-center duty (paper 2.2.2)
// ---------------------------------------------------------------------------

void HlsrgVehicleAgent::enter_center(GridCoord cell) {
  center_cell_ = cell;
  table_.clear();  // fresh duty; peers' hand-offs will repopulate
  arm_collection_timer();
}

void HlsrgVehicleAgent::leave_center() {
  table_.purge(svc_->sim().now(), svc_->cfg().l1_expiry);
  if (table_.empty()) {
    table_.release();
    return;
  }
  auto payload = std::make_shared<TablePayload>();
  payload->l1 = center_cell_;
  payload->records = table_.unsorted_records();

  // "geographic broadcast their own table in the range of the intersection"
  const Packet handoff = svc_->make_packet(PacketKind::kTableHandoff, node_, payload);
  svc_->metrics().aggregation_packets++;
  svc_->metrics().aggregation_transmissions++;
  svc_->sim().instant_span(SpanKind::kTableHandoff, SpanStatus::kOk,
                           vehicle_.value(), kNoQuery,
                           svc_->vehicle_pos(vehicle_), kNoQuery, 1, nullptr,
                           static_cast<std::int32_t>(payload->records.size()));
  svc_->medium().broadcast(node_, handoff);

  // "and send the table to their corresponding Level 2 grid center, a RSU"
  push_table_to_l2();
  // Duty is over: release, don't clear — at scale most vehicles are
  // ex-centers, and each clear()'d table would keep its peak capacity
  // (records + index) alive for the rest of the run.
  table_.release();
}

// ---------------------------------------------------------------------------
// Packet dispatch
// ---------------------------------------------------------------------------

void HlsrgVehicleAgent::on_receive(const Packet& packet, NodeId /*from*/) {
  switch (packet.kind) {
    case PacketKind::kLocationUpdate: {
      if (!in_center()) return;
      const auto& u = payload_as<UpdatePayload>(packet);
      if (u.grid_changed && u.old_l1 == center_cell_ &&
          !(u.record.l1 == center_cell_)) {
        // "the receivers in the old Level 1 grid will delete its information"
        table_.erase(u.record.vehicle);
      } else {
        // "the Level 1 grid centers in A's communication range have to
        // receive this packet" — every audible center stores the record (its
        // l1 field says which grid the vehicle actually entered).
        table_.record(u.record);
      }
      return;
    }
    case PacketKind::kTableHandoff: {
      if (!in_center()) return;
      const auto& t = payload_as<TablePayload>(packet);
      if (t.l1 == center_cell_) table_.merge(t.records);
      return;
    }
    case PacketKind::kQueryRequest:
      handle_center_request(packet);
      return;
    case PacketKind::kServerClaim: {
      // Every vehicle within radio range hears the claim, but only centers
      // take part in elections. Off duty it only cancels a back-off armed
      // while on duty, and keeps no settled mark.
      const auto& c = payload_as<ServerClaimPayload>(packet);
      const std::optional<EventHandle> timer =
          in_center()
              ? queries_.settle_election(c.dedup_key(), svc_->mark_epoch())
              : queries_.disarm_election(c.dedup_key());
      if (timer) svc_->sim().cancel(*timer);
      return;
    }
    case PacketKind::kNotification: {
      const auto& n = payload_as<NotificationPayload>(packet);
      if (n.target == vehicle_) answer_notification(n);
      return;
    }
    case PacketKind::kAck: {
      const auto& a = payload_as<AckPayload>(packet);
      if (auto timer = queries_.disarm_retry(a.query_id)) {
        svc_->sim().cancel(*timer);
        svc_->tracker().succeed(a.query_id);
      }
      return;
    }
    default:
      return;  // other kinds are RSU-only
  }
}

// ---------------------------------------------------------------------------
// Location service at an L1 center (paper 2.3.2, Level-1 case)
// ---------------------------------------------------------------------------

void HlsrgVehicleAgent::handle_center_request(const Packet& packet) {
  if (!in_center()) return;
  const auto& q = payload_as<QueryPayload>(packet);
  // Only the L1 grid the source addressed acts on its request (paper 2.3.2;
  // LAR's request zone). send_request picks that center from l1_at(src_pos),
  // so the payload already names it. Centers of neighbouring grids hear the
  // 500 m relay too; without this check each of them relays again, runs its
  // own election and forwards a miss to its own L2 RSU, and the request
  // cascades from center to center across the map.
  if (svc_->hierarchy().l1_at(q.src_pos) != center_cell_) return;
  const std::int64_t epoch = svc_->mark_epoch();
  if (!queries_.election_open(q.dedup_key(), epoch)) return;
  // First receiver relays the request once within the intersection so every
  // center vehicle participates in the back-off election. Under admission
  // overload the relay is suppressed — shedding radio airtime is the
  // protocol-side half of load shedding; the election still runs from
  // whatever centers heard the original send.
  if (queries_.mark(QueryState::Mark::kRelayed, q.dedup_key(), epoch) &&
      !svc_->overloaded()) {
    svc_->metrics().query_transmissions++;
    svc_->medium().broadcast(node_, packet);
  }
  run_election(q);
}

void HlsrgVehicleAgent::run_election(const QueryPayload& query) {
  table_.purge(svc_->sim().now(), svc_->cfg().l1_expiry);
  const bool holder = table_.find(query.target) != nullptr;
  const SimTime delay = election_backoff(svc_->sim().protocol_rng(), holder);
  // Copy the query payload; the packet may be gone when the timer fires.
  const QueryPayload q = query;
  queries_.arm_election(
      q.dedup_key(),
      svc_->sim().schedule_after(delay, [this, q] { win_election(q); }));
}

void HlsrgVehicleAgent::win_election(const QueryPayload& query) {
  // Election timers fire with no span context; re-anchor to the query root.
  SpanScope anchor(svc_->sim(), svc_->tracker().span_of(query.query_id));
  queries_.settle_election(query.dedup_key(), svc_->mark_epoch());
  // Announce so other center vehicles stop their back-off.
  auto claim = std::make_shared<ServerClaimPayload>();
  claim->query_id = query.query_id;
  claim->attempt = query.attempt;
  svc_->metrics().query_transmissions++;
  svc_->medium().broadcast(node_,
                           svc_->make_packet(PacketKind::kServerClaim, node_, claim));

  table_.purge(svc_->sim().now(), svc_->cfg().l1_expiry);
  if (const L1Record* found = table_.find(query.target)) {
    // A copy: find() pointers do not outlive an insert into the table.
    const L1Record rec = *found;
    svc_->metrics().server_lookup_hits++;
    svc_->sim().count_region_served(svc_->vehicle_pos(vehicle_));
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kOk,
                             vehicle_.value(), query.target.value(),
                             svc_->vehicle_pos(vehicle_), query.query_id, 1);
    serve(rec, query);
  } else {
    svc_->metrics().server_lookup_misses++;
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kFailed,
                             vehicle_.value(), query.target.value(),
                             svc_->vehicle_pos(vehicle_), query.query_id, 1);
    forward_up(query);
  }
}

void HlsrgVehicleAgent::serve(const L1Record& target_record,
                              const QueryPayload& query) {
  svc_->send_notification(node_, target_record, query);
}

void HlsrgVehicleAgent::forward_up(const QueryPayload& query) {
  if (svc_->rsus() == nullptr) return;  // dead end
  const GridCoord l2 = GridHierarchy::parent(center_cell_, GridLevel::kL2);
  const NodeId rsu = svc_->rsus()->node_at(l2, GridLevel::kL2);
  // "send its own table and the Sv's request packet to its corresponding
  // Level 2 RSU".
  if (!table_.empty()) {
    auto tbl = std::make_shared<TablePayload>();
    tbl->l1 = center_cell_;
    tbl->records = table_.unsorted_records();
    svc_->metrics().aggregation_packets++;
    svc_->gpsr().send(node_, svc_->registry().position(rsu), rsu,
                      svc_->make_packet(PacketKind::kTablePush, node_, tbl),
                      &svc_->metrics().aggregation_transmissions);
  }
  auto q = std::make_shared<QueryPayload>(query);
  svc_->gpsr().send(node_, svc_->registry().position(rsu), rsu,
                    svc_->make_packet(PacketKind::kQueryRequest, node_, q),
                    &svc_->metrics().query_transmissions);
}

// ---------------------------------------------------------------------------
// Own queries (paper 2.3.1 + the 5 s fallback)
// ---------------------------------------------------------------------------

void HlsrgVehicleAgent::start_query(QueryId qid, VehicleId target,
                                    NodeId preferred) {
  send_request(qid, target, /*attempt=*/1, preferred);
}

void HlsrgVehicleAgent::send_request(QueryId qid, VehicleId target,
                                     int attempt, NodeId preferred) {
  // Covers the first attempt (already under the root via issue_query) and
  // retries from the ack-timeout timer, which fire context-free.
  SpanScope anchor(svc_->sim(), svc_->tracker().span_of(qid));
  const Vec2 my_pos = svc_->vehicle_pos(vehicle_);
  auto q = std::make_shared<QueryPayload>();
  q->query_id = qid;
  q->attempt = attempt;
  q->src_vehicle = vehicle_;
  q->src_node = node_;
  q->src_pos = my_pos;
  q->target = target;
  const Packet pkt = svc_->make_packet(PacketKind::kQueryRequest, node_, q);
  svc_->metrics().query_packets_originated++;

  const GridHierarchy& h = svc_->hierarchy();
  const GridCoord l1 = h.l1_at(my_pos);

  // Destination of this attempt: the caller's pinned RSU when given
  // (service-tier cached serve), else the nearest level center for the
  // first try and the L3 RSU directly for the fallback.
  bool to_l1_center = true;
  NodeId rsu_node;
  Vec2 dest_pos = h.center_pos(l1, GridLevel::kL1);
  if (preferred.valid()) {
    to_l1_center = false;
    rsu_node = preferred;
  } else if (svc_->rsus() != nullptr) {
    const NodeId l2_node =
        svc_->rsus()->node_at(GridHierarchy::parent(l1, GridLevel::kL2),
                              GridLevel::kL2);
    const NodeId l3_node =
        svc_->rsus()->node_at(GridHierarchy::parent(l1, GridLevel::kL3),
                              GridLevel::kL3);
    if (attempt > 1) {
      // Fallback: "send a location request packet to its nearest Level 3 RSU
      // directly".
      to_l1_center = false;
      rsu_node = l3_node;
      if (attempt > 3 && svc_->cfg().enable_failover) {
        // Late retries rotate across L3 RSUs by distance (attempt 4 hits
        // the second-nearest, and so on) — if the home L3 is down, some
        // sibling still owns the target's region via L3 gossip. Rotation
        // waits until the home L3 has eaten two direct attempts: abandoning
        // a *healthy* home L3 (whose region summaries are freshest) costs
        // more than one extra timeout against a dead one.
        std::vector<std::pair<double, NodeId>> l3s;
        for (const RsuGrid::Rsu& r : svc_->rsus()->all()) {
          if (r.level == GridLevel::kL3) {
            l3s.emplace_back(distance(my_pos, r.pos), r.node);
          }
        }
        std::sort(l3s.begin(), l3s.end(),
                  [](const auto& a, const auto& b) {
                    return a.first != b.first ? a.first < b.first
                                              : a.second.value() < b.second.value();
                  });
        rsu_node = l3s[static_cast<std::size_t>(attempt - 3) % l3s.size()]
                       .second;
      }
    } else {
      // Nearest level center (L1 center vs L2 RSU vs L3 RSU).
      const double d1 = distance(my_pos, dest_pos);
      const double d2 = distance(my_pos, svc_->registry().position(l2_node));
      const double d3 = distance(my_pos, svc_->registry().position(l3_node));
      if (d2 < d1 && d2 <= d3) {
        to_l1_center = false;
        rsu_node = l2_node;
      } else if (d3 < d1 && d3 < d2) {
        to_l1_center = false;
        rsu_node = l3_node;
      }
    }
  }

  if (attempt > 1) {
    svc_->metrics().query_retries++;
    svc_->sim().instant_span(SpanKind::kRetry, SpanStatus::kOk,
                             vehicle_.value(), target.value(), my_pos, qid, -1,
                             to_l1_center ? "center" : "l3_direct", attempt);
  }

  if (to_l1_center) {
    svc_->gpsr().send(node_, dest_pos, std::nullopt, pkt,
                      &svc_->metrics().query_transmissions,
                      /*deliver=*/{}, /*fail=*/{},
                      /*delivery_radius=*/svc_->cfg().center_radius_m);
  } else {
    svc_->gpsr().send(node_, svc_->registry().position(rsu_node), rsu_node,
                      pkt, &svc_->metrics().query_transmissions);
  }

  queries_.arm_retry(qid,
                     svc_->sim().schedule_after(
                         retry_timeout(svc_->cfg(), attempt),
                         [this, qid, target, attempt] {
                           on_ack_timeout(qid, target, attempt);
                         }),
                     attempt);
}

void HlsrgVehicleAgent::on_ack_timeout(QueryId qid, VehicleId target,
                                       int attempt) {
  queries_.disarm_retry(qid);
  if (attempt >= svc_->cfg().max_attempts) {
    svc_->tracker().fail(qid);
    return;
  }
  // Admission seam for the retry path: a shed retry fails the query right
  // here — counted, settled, never silently stranded.
  if (QueryAdmission* adm = svc_->admission();
      adm != nullptr && !adm->admit_retry(qid, attempt + 1)) {
    svc_->tracker().fail(qid);
    return;
  }
  send_request(qid, target, attempt + 1);
}

// ---------------------------------------------------------------------------
// Dv side: answer a notification with an ACK straight back to Sv.
// ---------------------------------------------------------------------------

void HlsrgVehicleAgent::answer_notification(
    const NotificationPayload& notification) {
  if (!queries_.mark(QueryState::Mark::kAnswered, notification.query_id,
                     svc_->mark_epoch())) {
    return;
  }
  auto ack = std::make_shared<AckPayload>();
  ack->query_id = notification.query_id;
  ack->responder = vehicle_;
  ack->responder_pos = svc_->vehicle_pos(vehicle_);
  const Packet pkt = svc_->make_packet(PacketKind::kAck, node_, ack);
  svc_->metrics().query_packets_originated++;
  svc_->metrics().acks_sent++;
  // The ACK leg stays open until the query settles (the source's tracker
  // closes it); nest it under the propagated context when one survived the
  // flood, else directly under the query root.
  Simulator& sim = svc_->sim();
  SpanScope anchor(sim, sim.active_span() != kNoSpan
                            ? sim.active_span()
                            : svc_->tracker().span_of(notification.query_id));
  const SpanId ack_span = sim.begin_span(
      SpanKind::kAckLeg, vehicle_.value(), notification.src_vehicle.value(),
      svc_->vehicle_pos(vehicle_), notification.query_id);
  SpanScope scope(sim, ack_span);
  svc_->gpsr().send(node_, notification.src_pos, notification.src_node, pkt,
                    &svc_->metrics().query_transmissions);
}

}  // namespace hlsrg
