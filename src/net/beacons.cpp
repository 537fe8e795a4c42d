#include "net/beacons.h"

#include "util/check.h"

namespace hlsrg {

BeaconService::BeaconService(RadioMedium& medium, const NodeRegistry& registry,
                             BeaconConfig cfg)
    : medium_(&medium), registry_(&registry), cfg_(cfg) {
  HLSRG_CHECK(cfg.interval_sec > 0.0);
  HLSRG_CHECK(cfg.timeout_sec >= cfg.interval_sec);
  tables_.resize(registry.count());
  Simulator& sim = medium.sim();
  for (std::size_t i = 0; i < registry.count(); ++i) {
    const NodeId node{i};
    // Stagger first beacons across one interval so HELLOs do not collide in
    // lockstep.
    const double offset =
        sim.radio_rng().uniform(0.0, cfg.interval_sec);
    sim.schedule_after(SimTime::from_sec(offset),
                       [this, node] { beacon_from(node); });
  }
}

void BeaconService::beacon_from(NodeId node) {
  ++beacons_sent_;
  const Vec2 pos = registry_->position(node);
  const SimTime now = medium_->sim().now();
  medium_->broadcast_each(node, pos, PacketKind::kHello,
                          [this, node, pos, now](NodeId rx) {
    if (rx.index() < tables_.size()) {
      tables_[rx.index()].record(Neighbor{node, pos, now});
    }
  });
  medium_->sim().schedule_after(SimTime::from_sec(cfg_.interval_sec),
                                [this, node] { beacon_from(node); });
}

void BeaconService::neighbors_of(NodeId node, std::vector<Neighbor>* out) {
  HLSRG_CHECK(out != nullptr);
  HLSRG_CHECK(node.index() < tables_.size());
  Table& table = tables_[node.index()];
  table.purge(medium_->sim().now(), SimTime::from_sec(cfg_.timeout_sec));
  const std::vector<Neighbor> live = table.snapshot();
  out->insert(out->end(), live.begin(), live.end());
}

}  // namespace hlsrg
