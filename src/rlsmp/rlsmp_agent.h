// Per-vehicle RLSMP behaviour: cell-crossing updates, cell-leader duty,
// LSC duty (cluster table, query election, spiral forwarding), and the
// Sv/Dv ends of the query handshake.
#pragma once

#include "core/query_state.h"
#include "net/node_registry.h"
#include "rlsmp/cell_grid.h"
#include "rlsmp/rlsmp_messages.h"
#include "util/freshness_table.h"

namespace hlsrg {

class RlsmpService;

using RlsmpTable = FreshnessTable<CellRecord>;

class RlsmpVehicleAgent final : public PacketSink {
 public:
  RlsmpVehicleAgent(RlsmpService& service, VehicleId vehicle, NodeId node);

  void on_receive(const Packet& packet, NodeId from) override;

  // Mobility hook: detects cell crossings and leader-region transitions.
  void handle_moved(Vec2 before, Vec2 after);

  // Periodic cell-leader aggregation check (scheduled by the service).
  void aggregation_tick(std::int64_t period_index);

  void start_query(QueryTracker::QueryId qid, VehicleId target);

  // Introspection for tests.
  [[nodiscard]] bool in_leader_region() const { return in_leader_; }
  [[nodiscard]] bool lsc_duty() const;
  [[nodiscard]] const RlsmpTable& cell_table() const { return cell_table_; }
  [[nodiscard]] const RlsmpTable& cluster_table() const {
    return cluster_table_;
  }
  // Mutable table access for tests only (digest sensitivity).
  [[nodiscard]] RlsmpTable& mutable_cell_table() { return cell_table_; }

 private:
  using QueryId = QueryTracker::QueryId;

  // Arms this LSC's back-off election for `query`.
  void run_election(const RlsmpQueryPayload& query);
  void send_cell_update(CellCoord old_cell, CellCoord new_cell);
  // Bootstrap announcement (same ignition-time update HLSRG vehicles send).
  void send_initial_update();
  void leave_leader_region();
  void purge_tables();

  // LSC query path.
  void handle_lsc_query(const Packet& packet);
  void lsc_win_election(QueryId qid, const RlsmpQueryPayload& query);
  // Queues an unresolved query for the aggregation window; the window timer
  // flushes the whole batch to the next LSC in one packet.
  void enqueue_for_spiral(const RlsmpQueryPayload& query);
  void flush_spiral_batch();

  // Cell-leader notification path.
  void handle_cell_leader_query(const RlsmpQueryPayload& query);

  void answer_notify(const RlsmpNotifyPayload& notify);

  RlsmpService* svc_;
  VehicleId vehicle_;
  NodeId node_;

  bool in_leader_ = false;
  CellCoord leader_cell_;
  // Per-cell leader table (full records).
  RlsmpTable cell_table_;
  // Cluster table, populated only while on LSC duty.
  RlsmpTable cluster_table_;

  std::int64_t heard_push_period_ = -1;

  // Unresolved queries awaiting the aggregation window, grouped by the
  // spiral hop they will take next (spiral_index already advanced).
  std::vector<RlsmpQueryPayload> spiral_batch_;
  bool spiral_timer_armed_ = false;
  // Elections, settled / relayed / notify-forwarded / answered marks and
  // own-query timeouts by query id; relayed batch packets by packet id.
  QueryState queries_;
};

}  // namespace hlsrg
