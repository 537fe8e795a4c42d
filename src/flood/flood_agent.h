// Per-vehicle behaviour of the flooding baseline: distance-triggered
// network-wide location floods, an everyone-knows-everyone cache, and
// cache-probe / reactive-flood queries.
#pragma once

#include "core/query_state.h"
#include "flood/flood_messages.h"
#include "net/node_registry.h"
#include "util/freshness_table.h"

namespace hlsrg {

class FloodService;

class FloodVehicleAgent final : public PacketSink {
 public:
  FloodVehicleAgent(FloodService& service, VehicleId vehicle, NodeId node);

  void on_receive(const Packet& packet, NodeId from) override;

  // Mobility hook: accumulates driven distance and floods when due.
  void handle_moved(Vec2 before, Vec2 after);

  void start_query(QueryTracker::QueryId qid, VehicleId target);

  struct CacheEntry {
    VehicleId vehicle;
    Vec2 pos;
    SimTime time;
  };

  [[nodiscard]] const FreshnessTable<CacheEntry>& cache() const {
    return cache_;
  }

 private:

  void flood_own_location();

  FloodService* svc_;
  VehicleId vehicle_;
  NodeId node_;
  double distance_since_flood_;
  FreshnessTable<CacheEntry> cache_;
  // Own-query timeouts and answered probes, by query id.
  QueryState queries_;
};

}  // namespace hlsrg
