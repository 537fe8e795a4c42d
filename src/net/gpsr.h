// GPSR: greedy perimeter stateless routing (Karp & Kung, MobiCom 2000).
//
// The paper assumes GPSR as the unicast substrate ("GPSR become the most
// popular routing protocol in VANETs"), so we implement it properly: greedy
// geographic forwarding with perimeter-mode recovery over a Gabriel-graph
// planarization of the neighbor set, using the right-hand rule. Packets hop
// through the event queue, so every hop pays the radio's latency and loss.
//
// A route that cannot deliver ends early (DESIGN.md §2.3):
//  - empty delivery disc: a position-addressed packet at a greedy local
//    minimum whose radio range covers the whole delivery disc fails there,
//    since every node in the disc would be a closer neighbor;
//  - face loop: a perimeter walk about to take its first edge again has
//    toured the whole face without getting closer, and fails.
// A hop cap backs both up. RunMetrics counts each way a route fails.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "net/beacons.h"
#include "net/radio.h"
#include "trace/metrics.h"

namespace hlsrg {

class GpsrRouter {
 public:
  // Delivery outcome callbacks. `deliver` receives the node the packet was
  // handed to (which also gets it via its PacketSink).
  using DeliverFn = std::function<void(NodeId)>;
  using FailFn = std::function<void()>;

  GpsrRouter(RadioMedium& medium, const NodeRegistry& registry);

  // Switches neighbor discovery from the genie spatial index to HELLO
  // beacons (see net/beacons.h). Pass nullptr to revert. Forwarding
  // decisions then use last-heard positions, which may be stale.
  void set_beacons(BeaconService* beacons) { beacons_ = beacons; }

  // Routes `pkt` from `src` toward `dest_pos`.
  //  - If `dest_node` is set, delivery happens only at that node.
  //  - Otherwise the packet is delivered to the first node encountered within
  //    `delivery_radius` (<=0 uses a default radius) of `dest_pos`.
  // Routing gives up early when it cannot deliver (see above), and after a
  // fixed hop cap (see gpsr.cpp).
  // Each hop transmission increments *tx_counter when provided. The packet
  // is handed to the receiving node's PacketSink on delivery, in addition to
  // the `deliver` callback.
  void send(NodeId src, Vec2 dest_pos, std::optional<NodeId> dest_node,
            Packet pkt, std::uint64_t* tx_counter = nullptr,
            DeliverFn deliver = {}, FailFn fail = {},
            double delivery_radius = 0.0);

 private:
  struct RouteState;
  // A neighbor as the router believes it to be: with beacons, `pos` is the
  // last advertised position, not ground truth.
  struct NeighborView {
    NodeId id;
    Vec2 pos;
  };

  void route_step(NodeId current, const std::shared_ptr<RouteState>& st);
  // Abandons the route at `where`: counts the failure under `cause`, closes
  // the route span and runs the fail callback.
  void fail_route(const std::shared_ptr<RouteState>& st, Vec2 where,
                  std::uint64_t RunMetrics::*cause);
  void gather_neighbors(NodeId current, std::vector<NeighborView>* out);
  // Greedy next hop: neighbor strictly closer to the destination; invalid id
  // if none exists (local minimum).
  [[nodiscard]] static NodeId greedy_next(
      Vec2 current_pos, Vec2 dest, const std::vector<NeighborView>& neighbors);
  // Perimeter next hop: first Gabriel-graph neighbor counter-clockwise from
  // the reference direction (right-hand rule).
  [[nodiscard]] static NodeId perimeter_next(
      Vec2 current_pos, Vec2 reference_toward,
      const std::vector<NeighborView>& neighbors);

  RadioMedium* medium_;
  const NodeRegistry* registry_;
  BeaconService* beacons_ = nullptr;
  // Always-on route-length histogram ("gpsr.route_hops"); the pointer is
  // cached because registry nodes are address-stable.
  Histogram* hops_hist_;
};

}  // namespace hlsrg
