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
// Hot-path shape: a broadcast does ONE index walk, which returns receiver
// slots, then one pass over that batch: each receiver's contention density
// and L3 region come from per-slot caches kept per index rebuild, and one
// vector kernel (net/receiver_kernels.h) computes every loss probability
// from the index's slot positions, bit-identical to loss_probability(). The
// loss draws follow, one radio_rng().chance(p) per receiver in walk order,
// and RunMetrics and the per-kind ledger are booked once for the whole
// batch. ONE event then hands the frame to every survivor in walk order.
// All receptions of a broadcast share one hop delay, so per-receiver events
// would have held contiguous sequence numbers at one timestamp; anything a
// handler schedules gets a later sequence number either way, so dispatch
// order is unchanged.
//
// Every offer of a frame, broadcast or unicast, is booked through one
// helper (book_offers) in RunMetrics and the per-kind ledger; the
// receiver's region is booked per receiver.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "geom/aabb.h"
#include "net/neighbor_index.h"
#include "net/node_registry.h"
#include "net/packet.h"
#include "net/receiver_kernels.h"
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

// Loss probability of a hop of length `dist` with `local_neighbors` stations
// audible at the receiver: the one definition of the formula, evaluated per
// receiver by the batched kernel and per hop by unicast.
inline double hop_loss_probability(const RadioConfig& cfg, double dist,
                                   int local_neighbors) {
  const double frac = std::clamp(dist / cfg.range_m, 0.0, 1.0);
  const int excess =
      std::max(0, local_neighbors - cfg.contention_free_neighbors);
  const double p = cfg.base_loss + cfg.distance_loss * frac * frac +
                   cfg.contention_loss_per_neighbor * excess;
  return std::clamp(p, 0.0, cfg.max_loss);
}

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
  // stations audible at the receiver. The scalar reference of the batched
  // pass; unicast uses it.
  [[nodiscard]] double loss_probability(double dist, int local_neighbors) const;
  // Same, with the receiver position folded against any active loss zones.
  // With no zones this is exactly the two-argument form.
  [[nodiscard]] double loss_probability(double dist, int local_neighbors,
                                        Vec2 receiver_pos) const;
  // The broadcast's loss pass: p[i] is loss_probability(|tx_pos - rx|,
  // density[i], rx), bit for bit, for the receiver rx in index slot
  // slots[i]. The index must be current. Exposed for tests.
  void batch_loss(Vec2 tx_pos, std::span<const std::uint32_t> slots,
                  std::span<const std::int32_t> density,
                  std::vector<double>* p) const;

  // Replaces the active degraded-reception zones. Zero zones restores the
  // nominal channel bit-for-bit (no extra RNG draws, same loss values).
  void set_loss_zones(std::vector<RadioLossZone> zones) {
    loss_zones_ = std::move(zones);
  }
  [[nodiscard]] const std::vector<RadioLossZone>& loss_zones() const {
    return loss_zones_;
  }

  // Test seam: feeds the loss pass the exact per-receiver density recount
  // (bypassing the cell-sum shortcut and the per-slot cache) instead of the
  // cached density, so digest-equality tests can prove the cached path is
  // behavior-neutral. Never set outside tests.
  void set_reference_density_for_test(bool on) { reference_density_ = on; }

 private:
  [[nodiscard]] SimTime hop_delay();
  // p raised by the extra loss of every active zone containing `rx`.
  [[nodiscard]] double with_zones(double p, Vec2 rx) const;
  // Books `offered` offers of a `kind` frame, `dropped` of them lost by the
  // channel, in RunMetrics and the per-kind ledger.
  void book_offers(PacketKind kind, std::uint64_t offered,
                   std::uint64_t dropped);
  // Books one reception outcome in the region of the receiver in `slot`.
  void book_region(std::uint32_t slot, bool lost);
  // One MAC attempt of unicast_frame; schedules the next on loss.
  void try_unicast(NodeId sender, NodeId target, PacketKind kind,
                   int attempts_left, std::function<void()> on_delivered,
                   std::function<void()> on_lost, SpanId span, SpanId ctx);
  // Receiver-side contention density for the loss model: the cached value
  // normally, the exact recount under the reference seam.
  [[nodiscard]] std::int32_t density_at(std::uint32_t slot);

  Simulator* sim_;
  const NodeRegistry* registry_;
  RadioConfig cfg_;
  NeighborIndex index_;
  const ReceiverKernels* kernels_;
  std::vector<RadioLossZone> loss_zones_;
  // Per-broadcast scratch: receiver slots, densities, loss probabilities.
  std::vector<std::uint32_t> slots_;
  std::vector<std::int32_t> density_scratch_;
  std::vector<double> loss_scratch_;
  // Per-slot L3 region cache, valid while region_stamp_[s] equals the
  // index's rebuild count.
  std::vector<std::int32_t> slot_region_;
  std::vector<std::uint64_t> region_stamp_;
  bool reference_density_ = false;
};

}  // namespace hlsrg
