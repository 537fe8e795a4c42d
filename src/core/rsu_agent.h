// RSU-side HLSRG behaviour (paper 2.2.2 collection + 2.3.2 service).
//
// L2 RSUs hold {vehicle, time, sender L1 grid} summaries fed by grid-center
// table pushes and answer requests by forwarding down to the right L1 center
// or up (wired) to their L3 RSU. L3 RSUs hold {vehicle, time, sender L2,
// owner L3} summaries fed by periodic L2 pushes and by gossip with their
// wired L3 neighbors, and resolve requests across regions over the wired
// mesh.
#pragma once

#include <functional>

#include "core/location_table.h"
#include "core/messages.h"
#include "core/query_state.h"
#include "net/node_registry.h"
#include "service/batcher.h"
#include "service/hot_cache.h"
#include "service/service_config.h"

namespace hlsrg {

class HlsrgService;

class HlsrgRsuAgent final : public PacketSink {
 public:
  HlsrgRsuAgent(HlsrgService& service, RsuId rsu, GridLevel level,
                GridCoord coord, NodeId node);

  void on_receive(const Packet& packet, NodeId from) override;

  // Schedules the periodic push (L2) or gossip (L3) timer.
  void start_timers();

  // Crash/reboot hook (fault layer, via HlsrgService::set_rsu_up). Down, the
  // RSU counts and discards every arriving packet and its timers idle (they
  // keep rescheduling so the event cadence is stable). Rebooting loses all
  // state — tables and query dedup — and the RSU refills from child
  // re-registration: update broadcasts, grid-center pushes, L2 summaries,
  // and L3 gossip.
  void set_up(bool up);
  [[nodiscard]] bool up() const { return up_; }

  // Service-tier knobs (HlsrgService::configure_tier fan-out).
  void configure_tier(const ServiceTierConfig& cfg);
  // Peek: a fresh hot-destination cache entry for `dst` exists right now.
  // Does not count as a probe (admission uses it to pick the fast path; the
  // hit/miss is booked when the query actually arrives here).
  [[nodiscard]] bool cache_fresh(VehicleId dst);
  [[nodiscard]] std::size_t cached_records() const { return cache_.size(); }
  [[nodiscard]] std::size_t pending_batches() const {
    return batcher_.pending_batches();
  }

  [[nodiscard]] GridLevel level() const { return level_; }
  [[nodiscard]] GridCoord coord() const { return coord_; }
  [[nodiscard]] const L2Table& l2_table() const { return l2_table_; }
  [[nodiscard]] const L3Table& l3_table() const { return l3_table_; }
  [[nodiscard]] const L1Table& full_table() const { return full_table_; }

  // Mutable table access for tests only: the audit tests corrupt entries in
  // place to prove the auditors catch them. Protocol code must not use these.
  [[nodiscard]] L2Table& mutable_l2_table() { return l2_table_; }
  [[nodiscard]] L3Table& mutable_l3_table() { return l3_table_; }
  [[nodiscard]] L1Table& mutable_full_table() { return full_table_; }

 private:
  using QueryId = QueryTracker::QueryId;

  void handle_query_l2(const QueryPayload& query);
  void handle_query_l3(const QueryPayload& query);
  void push_summary_to_l3();
  void gossip_to_neighbors();
  // Forwards a request down to the L1 grid center holding the detail.
  void forward_down_to_l1(const QueryPayload& query, GridCoord l1);
  // Wired-plane failover: when the backhaul send failed, escalate the
  // request over the radio — to the nearest reachable L3 RSU (L2 side) or
  // straight to `target` (L3 side).
  void escalate_to_l3_by_radio(const QueryPayload& query);
  void escalate_by_radio(const Packet& pkt, NodeId target, const char* route);

  // --- service tier ---------------------------------------------------------
  // Sends a query request over the wire, through the batching window when
  // the tier enables it; failed sends run the normal failover escalation.
  void send_query_wired(const QueryPayload& query, NodeId dest);
  void enqueue_for_batch(const QueryPayload& query, NodeId dest);
  void flush_batch(NodeId dest, VehicleId target);
  // Failover path shared by direct and batched sends.
  void wired_query_failed(const QueryPayload& query, NodeId dest);
  // Fresh record arrived on the update plane: drop any staler cache entry.
  void invalidate_cache(VehicleId vehicle, SimTime fresh_time);
  // Serving side: warm the first L2 RSU on the query's path.
  void send_cache_fill(const L1Record& record, const QueryPayload& query);
  // Routes one request to the level handler.
  void dispatch_query(const QueryPayload& query);
  // Serving capacity: runs `lookup` after this RSU's serial work queue
  // drains (rsu_lookup_time per lookup; a whole batch is one lookup).
  // Immediate when the tier is off or the lookup time is zero.
  void schedule_lookup(std::function<void()> lookup);

  HlsrgService* svc_;
  RsuId rsu_;
  GridLevel level_;
  GridCoord coord_;
  NodeId node_;
  bool up_ = true;
  L2Table l2_table_;
  L3Table l3_table_;
  // Full-record cache at L2 RSUs. The pushed tables carry full records and
  // RSUs have "unlimited storage"; keeping them lets the RSU "act as the
  // location server of this request" (paper 2.3.2) instead of bouncing the
  // query back to a possibly-empty grid center. The thinned l2_table_ is
  // what flows upward.
  L1Table full_table_;
  // Requests already processed here, keyed by QueryPayload::dedup_key()
  // (duplicate suppression across the mesh, per attempt).
  QueryState queries_;
  // Service tier: hot-destination cache + batching window. Both idle (and
  // cost nothing) until configure_tier enables them.
  HotDestinationCache cache_;
  QueryBatcher batcher_;
  // Serving capacity: when this RSU's serial lookup queue drains. Lookups
  // scheduled while busy start here (FIFO by arrival order).
  SimTime busy_until_{};
};

}  // namespace hlsrg
