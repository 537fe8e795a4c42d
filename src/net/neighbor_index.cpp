#include "net/neighbor_index.h"

#include <algorithm>
#include <cmath>

#include "obs/profiler.h"
#include "util/check.h"

namespace hlsrg {

const std::vector<NodeId>* NeighborIndex::cell_nodes(std::uint64_t key) const {
  const std::uint32_t* slot = cell_index_.find(key);
  if (slot == nullptr) return nullptr;
  const std::vector<NodeId>& nodes = cells_[*slot];
  return nodes.empty() ? nullptr : &nodes;
}

std::vector<NodeId>& NeighborIndex::cell_nodes_mut(std::uint64_t key) {
  const std::uint32_t next = static_cast<std::uint32_t>(cells_.size());
  const std::uint32_t slot = cell_index_.find_or_insert(key, next);
  if (slot == next) cells_.emplace_back();
  return cells_[slot];
}

void NeighborIndex::refresh(SimTime /*now*/, PhaseProfiler* profiler) {
  const std::uint64_t pose_writes = registry_->pose_writes();
  if (built_pose_writes_ == pose_writes &&
      cached_pos_.size() == registry_->count()) {
    return;  // no pose written and no node added since the build
  }
  ProfileScope scope(profiler, "neighbor_index_rebuild");
  ++rebuilds_;
  ++stamp_;  // invalidates every cached density
  if (cached_pos_.size() == registry_->count() && !cached_pos_.empty()) {
    rebuild_incremental();
  } else {
    rebuild_full();
  }
  built_pose_writes_ = pose_writes;
}

void NeighborIndex::rebuild_full() {
  const std::size_t n = registry_->count();
  for (std::vector<NodeId>& nodes : cells_) nodes.clear();
  cached_pos_.resize(n);
  node_cell_.resize(n);
  density_.assign(n, 0);
  density_stamp_.assign(n, 0);
  // Ascending-id insertion keeps every cell list sorted, which the
  // incremental path preserves and query() relies on for receiver order.
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{i};
    const Vec2 p = registry_->position(id);
    const std::uint64_t key = key_for(p);
    cached_pos_[i] = p;
    node_cell_[i] = key;
    cell_nodes_mut(key).push_back(id);
  }
}

void NeighborIndex::rebuild_incremental() {
  const std::size_t n = registry_->count();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{i};
    const Vec2 p = registry_->position(id);
    Vec2& cached = cached_pos_[i];
    if (p.x == cached.x && p.y == cached.y) continue;
    cached = p;
    const std::uint64_t key = key_for(p);
    if (key == node_cell_[i]) continue;
    // Order-preserving move between the sorted cell lists.
    std::vector<NodeId>& from = cell_nodes_mut(node_cell_[i]);
    const auto it = std::lower_bound(from.begin(), from.end(), id);
    HLSRG_DCHECK(it != from.end() && *it == id);
    from.erase(it);
    std::vector<NodeId>& to = cell_nodes_mut(key);
    to.insert(std::lower_bound(to.begin(), to.end(), id), id);
    node_cell_[i] = key;
  }
}

void NeighborIndex::query(Vec2 p, double radius, NodeId exclude,
                          std::vector<NodeId>* out) const {
  HLSRG_CHECK(out != nullptr);
  HLSRG_CHECK_MSG(radius <= cell_ + 1e-9,
                  "query radius must not exceed the hash cell size");
  const auto cx = static_cast<std::int32_t>(std::floor(p.x / cell_));
  const auto cy = static_cast<std::int32_t>(std::floor(p.y / cell_));
  const double r2 = radius * radius;
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const std::vector<NodeId>* nodes = cell_nodes(pack(cx + dx, cy + dy));
      if (nodes == nullptr) continue;
      for (NodeId id : *nodes) {
        if (id == exclude) continue;
        if (distance2(cached_pos_[id.index()], p) <= r2) out->push_back(id);
      }
    }
  }
}

int NeighborIndex::count_within(Vec2 p, double radius, NodeId exclude) const {
  HLSRG_CHECK_MSG(radius <= cell_ + 1e-9,
                  "query radius must not exceed the hash cell size");
  const auto cx = static_cast<std::int32_t>(std::floor(p.x / cell_));
  const auto cy = static_cast<std::int32_t>(std::floor(p.y / cell_));
  const double r2 = radius * radius;
  int n = 0;
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const std::vector<NodeId>* nodes = cell_nodes(pack(cx + dx, cy + dy));
      if (nodes == nullptr) continue;
      for (NodeId id : *nodes) {
        if (id == exclude) continue;
        if (distance2(cached_pos_[id.index()], p) <= r2) ++n;
      }
    }
  }
  return n;
}

std::int32_t NeighborIndex::compute_density(NodeId id) const {
  const Vec2 p = cached_pos_[id.index()];
  const auto cx = static_cast<std::int32_t>(std::floor(p.x / cell_));
  const auto cy = static_cast<std::int32_t>(std::floor(p.y / cell_));
  if (saturation_ >= 0) {
    // Cell-population bound first: the node's whole in-range neighborhood
    // lies inside its 3x3 cell block, so (block population - itself) bounds
    // the exact count from above. At or below the saturation threshold the
    // loss model cannot distinguish the two (excess is zero either way).
    std::int32_t block = 0;
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        const std::vector<NodeId>* nodes = cell_nodes(pack(cx + dx, cy + dy));
        if (nodes != nullptr) block += static_cast<std::int32_t>(nodes->size());
      }
    }
    const std::int32_t bound = block - 1;
    if (bound <= saturation_) return bound;
  }
  return count_within(p, cell_, id);
}

std::int32_t NeighborIndex::local_density(NodeId id) {
  const std::size_t i = id.index();
  HLSRG_DCHECK(i < cached_pos_.size());
  if (density_stamp_[i] != stamp_) {
    ++density_recounts_;
    density_[i] = compute_density(id);
    density_stamp_[i] = stamp_;
  }
  return density_[i];
}

void NeighborIndex::query_with_density(Vec2 p, double radius, NodeId exclude,
                                       std::vector<NodeId>* out,
                                       std::vector<std::int32_t>* density_out) {
  HLSRG_CHECK(out != nullptr && density_out != nullptr);
  HLSRG_CHECK_MSG(radius <= cell_ + 1e-9,
                  "query radius must not exceed the hash cell size");
  const auto cx = static_cast<std::int32_t>(std::floor(p.x / cell_));
  const auto cy = static_cast<std::int32_t>(std::floor(p.y / cell_));
  const double r2 = radius * radius;
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const std::vector<NodeId>* nodes = cell_nodes(pack(cx + dx, cy + dy));
      if (nodes == nullptr) continue;
      for (NodeId id : *nodes) {
        if (id == exclude) continue;
        if (distance2(cached_pos_[id.index()], p) <= r2) {
          out->push_back(id);
          density_out->push_back(local_density(id));
        }
      }
    }
  }
}

}  // namespace hlsrg
