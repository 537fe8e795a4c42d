#include "core/churn_manager.h"

#include <memory>
#include <utility>

#include "core/hlsrg_service.h"
#include "core/rsu_agent.h"
#include "obs/region_telemetry.h"
#include "util/check.h"

namespace hlsrg {

namespace {

// Books one role migration against the role's L3 region (obs law:
// sum(role_migrations) == role_elections + role_fills).
void count_migration(Simulator& sim, Vec2 role_pos) {
  if (RegionTelemetry* regions = sim.regions()) {
    if (regions->configured()) {
      ++regions->at(regions->region_of(role_pos)).role_migrations;
    }
  }
}

}  // namespace

ChurnManager::ChurnManager(HlsrgService& service)
    : svc_(&service),
      directory_(service.rsus() != nullptr ? service.rsus()->count() : 0) {
  HLSRG_CHECK_MSG(service.rsus() != nullptr,
                  "parked_rsu_hosting requires an RSU grid");
  // Marks every report/digest from this run as churn-carrying, mirroring
  // fault_plan_digest: zero-churn runs never construct a ChurnManager, so
  // their digests ignore the churn counter block entirely.
  svc_->metrics().churn_active = 1;

  // Initial staffing, in RsuId order. Roles with no parked candidate start
  // vacant: agent down, wired node down, queries ride the failover ladder.
  // Initial binds are not departures, so the role_* conservation counters
  // stay untouched; the obs registry records the staffing split instead.
  MetricsRegistry& obs = svc_->sim().observability();
  for (std::size_t i = 0; i < directory_.role_count(); ++i) {
    const RsuId role{i};
    const VehicleId host = elect_host(role, VehicleId{});
    if (host.valid()) {
      directory_.bind_vehicle(role, host);
      obs.add("churn.initial_hosts");
    } else {
      directory_.vacate(role);
      take_role_down(role);
      obs.add("churn.initial_vacant");
    }
  }
}

void ChurnManager::on_parked(VehicleId v) {
  if (directory_.vacant_count() == 0) return;
  // Only bother sweeping when the new parker could actually staff something.
  const Vec2 pos = svc_->vehicle_pos(v);
  const double r2 = svc_->cfg().host_radius_m * svc_->cfg().host_radius_m;
  for (std::size_t i = 0; i < directory_.role_count(); ++i) {
    const RsuId role{i};
    if (directory_.staffed(role)) continue;
    if (distance2(pos, svc_->rsus()->rsu(role).pos) <= r2) {
      schedule_fill_sweep(svc_->cfg().role_fill_delay);
      return;
    }
  }
}

void ChurnManager::on_departed(VehicleId v, bool abrupt) {
  const RsuId role = directory_.role_of(v);
  if (!role.valid()) return;

  RunMetrics& m = svc_->metrics();
  ++m.role_departures;
  // Snapshot before any reboot/down wipes the agent's tables.
  std::shared_ptr<RoleHandoffPayload> snapshot = snapshot_role(role);
  const std::uint64_t n = snapshot->record_count();
  m.records_at_departure += n;
  directory_.vacate(role);

  if (abrupt) {
    // Fault-forced: the host vanishes mid-window with no chance to hand off.
    // Records are ledger-accounted as expired, the role goes dark, and the
    // vacancy is only noticed at the next detect sweep — the successor
    // rebuilds from beacons (the RSU reboot path).
    ++m.role_vacancies;
    m.handoff_records_expired += n;
    take_role_down(role);
    svc_->sim().observability().add("churn.abrupt_departures");
    schedule_fill_sweep(svc_->cfg().churn_detect_delay);
    return;
  }

  const VehicleId successor = elect_host(role, v);
  if (successor.valid()) {
    ++m.role_elections;
    count_migration(svc_->sim(), svc_->rsus()->rsu(role).pos);
    // Install first (the reboot wipes the agent), then ship the outgoing
    // host's snapshot from its still-parked radio to the role node.
    install_host(role, successor);
    if (svc_->cfg().enable_handoff && n > 0) {
      send_handoff_radio(svc_->node_of(v), std::move(snapshot));
    } else {
      m.handoff_records_expired += n;
    }
  } else {
    // Graceful degradation: no candidate in range. Ship the tables over the
    // wire to the absorbing parent/sibling before the role node goes down.
    ++m.role_vacancies;
    if (svc_->cfg().enable_handoff && n > 0) {
      send_handoff_wired(role, std::move(snapshot));
    } else {
      m.handoff_records_expired += n;
    }
    take_role_down(role);
  }
}

void ChurnManager::set_rsu_up(RsuId role, bool up) {
  if (up && !directory_.staffed(role)) {
    // A fault window ending cannot reboot a role nobody hosts. The injector
    // already re-raised the wired node before this hook ran; put it back.
    svc_->wired().set_node_up(svc_->rsus()->rsu(role).node, false);
    return;
  }
  svc_->rsu_agent(role).set_up(up);
}

void ChurnManager::expire_in_flight() {
  RunMetrics& m = svc_->metrics();
  m.handoff_records_expired += m.handoff_records_in_flight;
  m.handoff_records_in_flight = 0;
}

VehicleId ChurnManager::elect_host(RsuId role, VehicleId exclude) const {
  const Vec2 center = svc_->rsus()->rsu(role).pos;
  const double r2 = svc_->cfg().host_radius_m * svc_->cfg().host_radius_m;
  // Candidate scan off the registry's SoA rows (flag + position loads, no
  // road-graph geometry per vehicle). In sync with mobility at every call
  // site: elections run from parking callbacks (the pose bridge is ordered
  // first) and from timer events between ticks.
  const NodeRegistry& registry = svc_->registry();
  VehicleId best;
  double best_d2 = 0.0;
  for (std::size_t i = 0; i < registry.vehicle_count(); ++i) {
    const VehicleId v{i};
    if (v == exclude) continue;
    if (!registry.vehicle_parked(v)) continue;
    if (directory_.role_of(v).valid()) continue;  // one role per vehicle
    const double d2 = distance2(registry.vehicle_position(v), center);
    if (d2 > r2) continue;
    // Strict < keeps the lowest id on exact distance ties (ascending scan).
    if (!best.valid() || d2 < best_d2) {
      best = v;
      best_d2 = d2;
    }
  }
  return best;
}

void ChurnManager::install_host(RsuId role, VehicleId host) {
  directory_.bind_vehicle(role, host);
  HlsrgRsuAgent& agent = svc_->rsu_agent(role);
  // Cycle through down/up: a host swap is a reboot — the successor starts
  // with empty tables and refills from the handoff (graceful) or from child
  // re-registration (abrupt / handoff lost).
  if (agent.up()) agent.set_up(false);
  agent.set_up(true);
  svc_->wired().set_node_up(svc_->rsus()->rsu(role).node, true);
}

void ChurnManager::take_role_down(RsuId role) {
  HlsrgRsuAgent& agent = svc_->rsu_agent(role);
  if (agent.up()) agent.set_up(false);
  svc_->wired().set_node_up(svc_->rsus()->rsu(role).node, false);
}

void ChurnManager::send_handoff_radio(
    NodeId from_node, std::shared_ptr<RoleHandoffPayload> payload) {
  RunMetrics& m = svc_->metrics();
  const std::uint64_t n = payload->record_count();
  const NodeId target = svc_->rsus()->rsu(payload->role).node;
  ++m.handoffs_sent;
  m.handoff_records_sent += n;
  m.handoff_records_in_flight += n;
  svc_->sim().observability().add("churn.handoffs_radio");
  const Packet pkt =
      svc_->make_packet(PacketKind::kRoleHandoff, from_node, payload);
  // The MAC retries settle asynchronously: delivery books the records at the
  // receiver, final loss expires them here. Until then they are in flight.
  svc_->medium().unicast(from_node, target, pkt, [this, n] {
    RunMetrics& metrics = svc_->metrics();
    ++metrics.handoffs_lost;
    metrics.handoff_records_in_flight -= n;
    metrics.handoff_records_expired += n;
  });
}

void ChurnManager::send_handoff_wired(
    RsuId role, std::shared_ptr<RoleHandoffPayload> payload) {
  RunMetrics& m = svc_->metrics();
  const std::uint64_t n = payload->record_count();
  const RsuGrid::Rsu& r = svc_->rsus()->rsu(role);

  // Absorber: the parent L3 for an L2 role; the nearest up sibling L3
  // (lowest node id on ties) for an L3 role — the PR-4 escalation targets.
  NodeId target;
  if (r.level == GridLevel::kL2) {
    const GridCoord parent{r.coord.col / 2, r.coord.row / 2};
    const NodeId parent_node = svc_->rsus()->node_at(parent, GridLevel::kL3);
    if (parent_node.valid() && svc_->wired().node_up(parent_node)) {
      target = parent_node;
    }
  } else {
    double best_d = 0.0;
    for (const NodeId peer : svc_->wired().links_of(r.node)) {
      const RsuId peer_rsu = svc_->rsus()->rsu_of_node(peer);
      if (!peer_rsu.valid()) continue;
      if (svc_->rsus()->rsu(peer_rsu).level != GridLevel::kL3) continue;
      if (!svc_->wired().node_up(peer)) continue;
      const double d = distance(svc_->rsus()->rsu(peer_rsu).pos, r.pos);
      if (!target.valid() || d < best_d ||
          (d == best_d && peer.value() < target.value())) {
        target = peer;
        best_d = d;
      }
    }
  }

  if (!target.valid()) {
    // Nobody to absorb the region's records: they expire, and queries for
    // them rebuild through re-registration once a successor is staffed.
    m.handoff_records_expired += n;
    return;
  }

  ++m.handoffs_sent;
  m.handoff_records_sent += n;
  m.handoff_records_in_flight += n;
  svc_->sim().observability().add("churn.handoffs_wired");
  const Packet pkt =
      svc_->make_packet(PacketKind::kRoleHandoff, r.node, payload);
  if (!svc_->wired().send(r.node, target, pkt,
                          &m.aggregation_transmissions)) {
    ++m.handoffs_lost;
    m.handoff_records_in_flight -= n;
    m.handoff_records_expired += n;
  }
}

void ChurnManager::schedule_fill_sweep(SimTime delay) {
  if (sweep_pending_) return;
  sweep_pending_ = true;
  svc_->sim().schedule_after(delay, [this] {
    sweep_pending_ = false;
    fill_sweep();
  });
}

void ChurnManager::fill_sweep() {
  RunMetrics& m = svc_->metrics();
  for (std::size_t i = 0; i < directory_.role_count(); ++i) {
    const RsuId role{i};
    if (directory_.staffed(role)) continue;
    const VehicleId host = elect_host(role, VehicleId{});
    if (!host.valid()) continue;
    ++m.role_fills;
    count_migration(svc_->sim(), svc_->rsus()->rsu(role).pos);
    install_host(role, host);
  }
}

std::shared_ptr<RoleHandoffPayload> ChurnManager::snapshot_role(RsuId role) {
  const HlsrgRsuAgent& agent = svc_->rsu_agent(role);
  auto payload = std::make_shared<RoleHandoffPayload>();
  payload->role = role;
  payload->level = agent.level();
  // Bulk-copied in dense arena order (no sort): the receiver's thinning
  // re-keys every record through newest-wins merges, so payload order is
  // semantically inert — table contents, counters, and digests are
  // byte-identical to the old sorted-snapshot path (pinned by
  // tests/churn_test.cpp HandoffPayloadOrderIsSemanticallyInert).
  payload->full_records = agent.full_table().unsorted_records();
  payload->l2_records = agent.l2_summaries();
  payload->l3_records = agent.l3_table().unsorted_records();
  return payload;
}

}  // namespace hlsrg
