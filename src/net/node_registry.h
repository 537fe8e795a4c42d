// Unified id space and directory for every radio-capable node.
//
// Vehicles and RSUs share one NodeId space so the radio, GPSR, and geocast
// layers are agnostic to what a node is. Positions are stored SoA and
// *pushed* by whoever owns the node's motion: the world's pose bridge
// mirrors every mobility write here (vehicles), RSUs push once at
// registration. position() is a plain array load — the radio/GPSR hot
// paths used to chase a std::function per read (~48 B per node plus an
// indirect call); at million-entity scale both the bytes and the branch
// mattered.
//
// The registry also carries the dense per-vehicle SoA block (velocity,
// parked flag, L3 region), indexed by VehicleId. Consumers that used to
// poll the mobility model per vehicle (the region sampler, churn election,
// the fault layer's burst-departure hook) read these arrays instead; the
// pose bridge keeps them in sync on the mobility listener callbacks.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.h"
#include "net/packet.h"
#include "util/tagged_id.h"

namespace hlsrg {

// Receiver interface implemented by protocol agents and RSUs.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_receive(const Packet& packet, NodeId from) = 0;
};

class NodeRegistry {
 public:
  // Registers a node at `position`; `sink` may be null for sniff-only
  // placeholders and can be set later (agents are often constructed after
  // registration).
  NodeId add_node(Vec2 position, PacketSink* sink = nullptr);

  void set_sink(NodeId id, PacketSink* sink);

  // Pushes a new pose and counts the write. The pose bridge writes a whole
  // mobility tick at once, before any protocol reacts to it.
  void set_position(NodeId id, Vec2 position) {
    positions_[id.index()] = position;
    ++pose_writes_;
  }

  [[nodiscard]] std::size_t count() const { return positions_.size(); }
  [[nodiscard]] Vec2 position(NodeId id) const {
    return positions_[id.index()];
  }
  [[nodiscard]] PacketSink* sink(NodeId id) const {
    return sinks_[id.index()];
  }

  // Number of set_position calls so far. Equal counts at two instants mean
  // no pose changed in between, so a cache built from positions stays valid
  // (the neighbor index keys its rebuild on this).
  [[nodiscard]] std::uint64_t pose_writes() const { return pose_writes_; }

  // --- dense vehicle block (SoA, indexed by VehicleId) ---------------------

  // Binds vehicle `v` to its radio node and seeds its state row. Vehicles
  // bind in dense id order (the protocol services register them 0..n-1).
  void bind_vehicle(VehicleId v, NodeId node);

  void set_vehicle_velocity(VehicleId v, Vec2 velocity) {
    vehicle_velocity_[v.index()] = velocity;
  }
  void set_vehicle_parked(VehicleId v, bool parked) {
    vehicle_parked_[v.index()] = parked ? 1 : 0;
  }
  void set_vehicle_region(VehicleId v, std::int32_t region) {
    vehicle_region_[v.index()] = region;
  }

  [[nodiscard]] std::size_t vehicle_count() const {
    return vehicle_nodes_.size();
  }
  [[nodiscard]] NodeId vehicle_node(VehicleId v) const {
    return vehicle_nodes_[v.index()];
  }
  [[nodiscard]] Vec2 vehicle_position(VehicleId v) const {
    return positions_[vehicle_nodes_[v.index()].index()];
  }
  [[nodiscard]] Vec2 vehicle_velocity(VehicleId v) const {
    return vehicle_velocity_[v.index()];
  }
  [[nodiscard]] bool vehicle_parked(VehicleId v) const {
    return vehicle_parked_[v.index()] != 0;
  }
  [[nodiscard]] std::int32_t vehicle_region(VehicleId v) const {
    return vehicle_region_[v.index()];
  }

  // Heap footprint of the directory (bench memory gates).
  [[nodiscard]] std::size_t bytes() const;

 private:
  // Node SoA: hot position reads touch only positions_.
  std::vector<Vec2> positions_;
  std::vector<PacketSink*> sinks_;
  // Vehicle SoA, indexed by VehicleId.
  std::vector<NodeId> vehicle_nodes_;
  std::vector<Vec2> vehicle_velocity_;
  std::vector<std::uint8_t> vehicle_parked_;
  std::vector<std::int32_t> vehicle_region_;
  std::uint64_t pose_writes_ = 0;
};

}  // namespace hlsrg
