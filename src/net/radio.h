// Wireless medium (ns-2 substitute): unit-disk radio with a loss model.
//
// Reception succeeds within `range_m` with probability 1 - p_loss, where
// p_loss grows with distance (fading) and with the receiver-side neighbor
// count (contention — more stations in earshot, more collisions). Per-hop
// latency is a base MAC/propagation floor plus uniform jitter. This is the
// minimal channel that still produces the effects the paper's evaluation
// turns on: long hops and dense areas lose packets, so multi-hop
// vehicle-to-vehicle paths across "vast areas" are unreliable while short
// hops and wired RSUs are not.
//
// Hot-path shape: a broadcast does ONE index walk (query_with_density
// returns receivers and their cached contention densities together), draws
// per-receiver loss in a single pass over that batch, and schedules ONE
// event that hands the frame to every survivor in walk order. All receptions
// of a broadcast share one hop delay, so per-receiver events would have held
// contiguous sequence numbers at one timestamp; anything a handler schedules
// gets a later sequence number either way, so dispatch order is unchanged.
//
// Every offer of a frame to a receiver, broadcast or unicast, settles through
// one helper (offer) that books it in RunMetrics, the per-kind ledger and the
// receiver's region together.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "geom/aabb.h"
#include "net/neighbor_index.h"
#include "net/node_registry.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace hlsrg {

struct RadioConfig {
  // Communication range; the paper uses 500 m, matched to the L1 grid edge.
  double range_m = 500.0;
  // Per-hop latency floor and uniform jitter (MAC access + serialization).
  double base_delay_ms = 1.5;
  double jitter_ms = 2.5;
  // Loss model: p = base + distance_loss * (d/R)^2 + contention excess.
  // ns-2's two-ray-ground model delivers near-deterministically inside the
  // range; most real loss is contention. The distance term stays moderate so
  // edge-of-range hops are risky but not hopeless.
  double base_loss = 0.01;
  double distance_loss = 0.15;
  double contention_loss_per_neighbor = 0.002;
  int contention_free_neighbors = 15;
  double max_loss = 0.95;
  // MAC retransmissions for unicast frames (broadcasts are never retried,
  // as in 802.11).
  int unicast_retries = 2;
  double retry_delay_ms = 1.0;
};

// Region of degraded radio reception (jamming, interference, weather): any
// reception whose receiver sits inside `box` takes `extra_loss` additional
// loss probability. Installed/cleared by the fault layer at window edges.
struct RadioLossZone {
  Aabb box;
  double extra_loss = 0.0;
};

class RadioMedium {
 public:
  RadioMedium(Simulator& sim, const NodeRegistry& registry, RadioConfig cfg);

  // One-hop broadcast to every node in range of the sender. Each receiver
  // independently passes the loss draw. Returns the in-range receiver count
  // (before losses).
  int broadcast(NodeId sender, const Packet& pkt);
  // Same, transmitted from `tx_pos` instead of the sender's registry pose.
  // An HLSRG update goes out from the intersection the vehicle crossed.
  int broadcast(NodeId sender, Vec2 tx_pos, const Packet& pkt);

  // One-hop broadcast from `tx_pos` delivering to a callback instead of node
  // sinks; the geocast layer uses this to run region-limited floods with its own
  // duplicate suppression. broadcast() is this with a sink-delivering
  // callback. The callback fires at reception time, once per surviving
  // receiver. `kind` feeds the per-kind channel ledger (the frame carries no
  // Packet, but the conservation auditor still covers it).
  int broadcast_each(NodeId sender, Vec2 tx_pos, PacketKind kind,
                     std::function<void(NodeId)> on_deliver);

  // One-hop unicast with MAC retries. `target` must currently be in range;
  // if it is not, or every retry is lost, `on_lost` fires (if provided).
  void unicast(NodeId sender, NodeId target, const Packet& pkt,
               std::function<void()> on_lost = {});

  // One-hop unicast of a bare frame: channel semantics (range check, loss,
  // retries, delay) without sink delivery. Routing layers use this for
  // intermediate hops so forwarders do not consume the packet; exactly one
  // of the callbacks fires, at delivery/abandon time. `kind` is the packet
  // kind the frame is carrying, for the channel ledger. unicast() is this
  // with a sink-delivering callback.
  void unicast_frame(NodeId sender, NodeId target, PacketKind kind,
                     std::function<void()> on_delivered,
                     std::function<void()> on_lost = {});

  // Nodes currently within range of `node`.
  void neighbors_of(NodeId node, std::vector<NodeId>* out);
  // Nodes currently within range of a position (excluding `exclude`).
  void nodes_near(Vec2 pos, double radius, NodeId exclude,
                  std::vector<NodeId>* out);

  [[nodiscard]] Vec2 position(NodeId id) const { return registry_->position(id); }
  [[nodiscard]] double range() const { return cfg_.range_m; }
  [[nodiscard]] const RadioConfig& config() const { return cfg_; }
  [[nodiscard]] Simulator& sim() { return *sim_; }
  // The receiver index, for its work counters.
  [[nodiscard]] const NeighborIndex& index() const { return index_; }

  // Loss probability for a hop of length `dist` with `local_neighbors`
  // stations audible at the receiver. Exposed for tests.
  [[nodiscard]] double loss_probability(double dist, int local_neighbors) const;
  // Same, with the receiver position folded against any active loss zones.
  // With no zones this is exactly the two-argument form.
  [[nodiscard]] double loss_probability(double dist, int local_neighbors,
                                        Vec2 receiver_pos) const;

  // Replaces the active degraded-reception zones. Zero zones restores the
  // nominal channel bit-for-bit (no extra RNG draws, same loss values).
  void set_loss_zones(std::vector<RadioLossZone> zones) {
    loss_zones_ = std::move(zones);
  }
  [[nodiscard]] const std::vector<RadioLossZone>& loss_zones() const {
    return loss_zones_;
  }

  // Test seam: forces the exact per-receiver density recount (bypassing the
  // cell-sum shortcut and the per-node cache), so digest-equality tests can
  // prove the cached path is behavior-neutral. Never set outside tests.
  void set_reference_density_for_test(bool on) { reference_density_ = on; }

 private:
  [[nodiscard]] SimTime hop_delay();
  // Books one offer of a `kind` frame to the receiver at `rx_pos`, and
  // whether the channel lost it, in RunMetrics, the per-kind ledger and the
  // receiver's region. Returns true when the frame is delivered.
  bool offer(PacketKind kind, Vec2 rx_pos, bool lost);
  // One MAC attempt of unicast_frame; schedules the next on loss.
  void try_unicast(NodeId sender, NodeId target, PacketKind kind,
                   int attempts_left, std::function<void()> on_delivered,
                   std::function<void()> on_lost, SpanId span, SpanId ctx);
  // Receiver-side contention density for the loss model: the cached batched
  // value normally, the exact recount under the reference seam.
  [[nodiscard]] int density_at(NodeId rx);

  Simulator* sim_;
  const NodeRegistry* registry_;
  RadioConfig cfg_;
  NeighborIndex index_;
  std::vector<RadioLossZone> loss_zones_;
  std::vector<NodeId> scratch_;
  std::vector<std::int32_t> density_scratch_;
  bool reference_density_ = false;
};

}  // namespace hlsrg
