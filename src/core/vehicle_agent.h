// Per-vehicle HLSRG behaviour: update sending, grid-center duty (collecting,
// hand-off, serving), query origination, election participation, and the
// Dv-side notification/ACK handshake.
#pragma once

#include "core/location_table.h"
#include "core/messages.h"
#include "core/query_state.h"
#include "core/update_rules.h"
#include "net/node_registry.h"

namespace hlsrg {

class HlsrgService;

class HlsrgVehicleAgent final : public PacketSink {
 public:
  HlsrgVehicleAgent(HlsrgService& service, VehicleId vehicle, NodeId node);

  // --- PacketSink -----------------------------------------------------------
  void on_receive(const Packet& packet, NodeId from) override;

  // --- mobility hooks (called by the service) --------------------------------
  void handle_intersection_pass(IntersectionId node, SegmentId in_seg,
                                SegmentId out_seg);
  // Center-duty transitions (paper 2.2.2). The service owns the duty flag
  // and clears it before leave_center / sets it before enter_center.
  // Entering starts a fresh table and arms the collection timer; leaving
  // purges, hands the table off within the intersection, and pushes it to
  // the L2 RSU.
  void enter_center(GridCoord cell);
  void leave_center();

  // --- query origination ------------------------------------------------------
  // `preferred` (when valid) pins the first attempt's destination — used by
  // the service-tier cached-serve fast path to aim straight at the RSU whose
  // cache is warm. Retries fall back to the normal destination choice.
  void start_query(QueryTracker::QueryId qid, VehicleId target,
                   NodeId preferred = NodeId{});

  // --- introspection (tests) ---------------------------------------------------
  [[nodiscard]] bool in_center() const;
  // The L1 cell of the current (or last) center duty.
  [[nodiscard]] GridCoord center_cell() const { return center_cell_; }
  [[nodiscard]] const L1Table& table() const { return table_; }
  // Mutable table access for tests only (audit corruption injection).
  [[nodiscard]] L1Table& mutable_table() { return table_; }
  [[nodiscard]] VehicleId vehicle() const { return vehicle_; }
  [[nodiscard]] NodeId node() const { return node_; }
  // True while an own-query attempt has its retry timer armed. Between any
  // two events, every unsettled query this vehicle originated has a pending
  // entry — the invariant the AvailabilityAuditor enforces.
  [[nodiscard]] bool has_pending(QueryTracker::QueryId qid) const {
    return pending_attempt(qid) != 0;
  }
  // Attempt number of the armed retry; 0 when none pending.
  [[nodiscard]] int pending_attempt(QueryTracker::QueryId qid) const {
    return queries_.retry_attempt(qid);
  }
  // Per-query bookkeeping (tests).
  [[nodiscard]] const QueryState& query_state() const { return queries_; }
  // True while the periodic collection timer is scheduled (tests).
  [[nodiscard]] bool collection_armed() const { return collection_armed_; }

 private:
  using QueryId = QueryTracker::QueryId;

  // Builds the L1 record for an update sent while crossing an intersection
  // onto `out_seg`. Direction and road class come from the exit segment —
  // that is the road the vehicle will be found on.
  [[nodiscard]] L1Record record_at_crossing(GridCoord l1, IntersectionId node,
                                            SegmentId out_seg);

  // Sends the one-hop location-update broadcast decided by the rule engine.
  void send_update(const UpdateDecision& decision, IntersectionId node,
                   SegmentId out_seg);

  // Bootstrap announcement shortly after the vehicle enters the network, so
  // it is locatable before its first rule-triggered update.
  void send_initial_update();

  // Query handling at a grid center.
  void handle_center_request(const Packet& packet);
  void run_election(const QueryPayload& query);
  void win_election(const QueryPayload& query);
  void serve(const L1Record& target_record, const QueryPayload& query);
  void forward_up(const QueryPayload& query);

  // Periodic collection: while on center duty, push the table to the L2 RSU
  // ("further periodically gather to the upper level"). The timer runs only
  // while the vehicle is on center duty: entering a center arms it onto a
  // fixed per-vehicle phase grid (jitter + k * kL2PushPeriod), leaving lets
  // it lapse at the next tick. Most vehicles are not at a center most of the
  // time, so this drops the standing per-vehicle event (and its slab slot)
  // that the always-on timer kept alive.
  void arm_collection_timer();
  void collection_tick();
  void push_table_to_l2();

  // Own-query lifecycle.
  void send_request(QueryId qid, VehicleId target, int attempt,
                    NodeId preferred = NodeId{});
  void on_ack_timeout(QueryId qid, VehicleId target, int attempt);

  // Dv side.
  void answer_notification(const NotificationPayload& notification);

  HlsrgService* svc_;
  VehicleId vehicle_;
  NodeId node_;

  // Grid-center duty (the on-duty flag lives in the service).
  bool collection_armed_ = false;
  GridCoord center_cell_;
  // Per-vehicle phase of the collection grid: ticks fire at
  // collection_phase_ + k * kL2PushPeriod, matching the cadence the old
  // always-on timer established at construction.
  SimTime collection_phase_;
  L1Table table_;

  // Elections seen at this center and the settled / relayed marks are
  // keyed by QueryPayload::dedup_key(), so each (request, attempt) runs its
  // own election; own-query retries and answered notifications by query id.
  QueryState queries_;
};

}  // namespace hlsrg
