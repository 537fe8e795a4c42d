// HELLO beaconing: distributed neighbor discovery for GPSR.
//
// By default the router reads neighbor sets from the genie spatial index —
// instantaneous, perfect knowledge, the common simulator idealization. Real
// GPSR learns neighbors from periodic HELLO beacons and works with positions
// that are up to one beacon interval stale; fast vehicles therefore leak out
// of (or into) neighbor tables late, which costs the occasional bad next-hop
// choice. This service implements that mechanism so the idealization is a
// measured choice (bench: abl_beacons), not an accident.
#pragma once

#include <cstdint>
#include <vector>

#include "net/radio.h"
#include "util/freshness_table.h"

namespace hlsrg {

struct BeaconConfig {
  bool enabled = false;
  // HELLO interval per node; GPSR's classic default is ~1 s.
  double interval_sec = 1.0;
  // Entries not refreshed within this horizon are evicted (typically a few
  // intervals so a single lost beacon does not drop a live neighbor).
  double timeout_sec = 3.0;
};

class BeaconService {
 public:
  // Starts per-node beacon timers for every node currently registered.
  // Nodes registered later are not covered (worlds register everything
  // before the simulation starts).
  BeaconService(RadioMedium& medium, const NodeRegistry& registry,
                BeaconConfig cfg);

  struct Neighbor {
    NodeId id;
    Vec2 heard_pos;  // position advertised in the last HELLO received
    SimTime time;    // when that HELLO was sent
  };

  // Appends the live neighbor table of `node` (staleness-purged) to `out`,
  // in NodeId order.
  void neighbors_of(NodeId node, std::vector<Neighbor>* out);

  // One node's HELLO table: the newest beacon heard from each neighbor.
  using Table = FreshnessTable<Neighbor, &Neighbor::id>;
  // Every node's table, indexed by NodeId (digests).
  [[nodiscard]] const std::vector<Table>& tables() const { return tables_; }

  [[nodiscard]] std::uint64_t beacons_sent() const { return beacons_sent_; }
  [[nodiscard]] const BeaconConfig& config() const { return cfg_; }

 private:
  void beacon_from(NodeId node);

  RadioMedium* medium_;
  const NodeRegistry* registry_;
  BeaconConfig cfg_;
  std::vector<Table> tables_;  // indexed by NodeId
  std::uint64_t beacons_sent_ = 0;
};

}  // namespace hlsrg
