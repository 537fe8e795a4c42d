// Spatial hash over node positions for O(1) neighborhood queries.
//
// Cell size equals the radio range, so a range query touches at most the
// 3x3 cell block around the query point. The index is rebuilt lazily, keyed
// on the registry's pose-write count and node count: while neither has
// changed since the build, the positions are those the build indexed, so
// refresh() is a no-op and every cached density survives. The pose bridge
// commits a whole mobility tick before any protocol broadcasts, so there is
// at most one rebuild per tick. Rebuilds are incremental — only nodes whose
// cell changed move between cell lists — and the cell table is an
// open-addressing flat map (util/flat_table.h) instead of an unordered_map.
//
// Receiver-side contention density is served from a per-node cache filled
// lazily once per rebuild. Density feeds the radio loss model only through
// `excess = max(0, n - contention_free_neighbors)` (net/radio.h), so any
// count that is provably at or below the saturation threshold yields the
// same loss as the exact count: local_density() returns the 3x3 cell
// population sum when that bound already clears the threshold and falls back
// to the exact distance-filtered count only in saturated neighborhoods.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "geom/vec2.h"
#include "net/node_registry.h"
#include "sim/time.h"
#include "util/flat_table.h"
#include "util/tagged_id.h"

namespace hlsrg {

class PhaseProfiler;

class NeighborIndex {
 public:
  // `density_saturation` < 0 disables the cell-sum shortcut: local_density()
  // then always returns the exact count.
  NeighborIndex(const NodeRegistry& registry, double cell_size,
                int density_saturation = -1)
      : registry_(&registry), cell_(cell_size),
        saturation_(density_saturation) {}

  // Ensures the index reflects the registry's current positions. `now` is
  // not part of the staleness key (pose writes are); it stays in the
  // signature because callers outside the library pass it. A non-null
  // profiler times the rebuild path (the cheap staleness check is never
  // profiled).
  void refresh(SimTime now, PhaseProfiler* profiler = nullptr);

  // Appends all nodes within `radius` of `p` (excluding `exclude` if valid)
  // to `out`. Caller must refresh() first; checked.
  void query(Vec2 p, double radius, NodeId exclude,
             std::vector<NodeId>* out) const;

  // Number of nodes within `radius` of `p`, excluding `exclude`. Always the
  // exact distance-filtered count. `radius` must not exceed the cell size;
  // checked.
  [[nodiscard]] int count_within(Vec2 p, double radius, NodeId exclude) const;

  // Batched receiver walk for the radio: one index walk appends every node
  // within `radius` of `p` to `out` and, in lockstep, each receiver's cached
  // contention density (see local_density) to `density_out`. Receiver order
  // matches query() exactly.
  void query_with_density(Vec2 p, double radius, NodeId exclude,
                          std::vector<NodeId>* out,
                          std::vector<std::int32_t>* density_out);

  // Contention density at node `id`: the number of other stations audible at
  // its position, as the radio loss model consumes it. Returns the exact
  // in-range count, except that unsaturated neighborhoods (3x3 cell sum
  // already at or below `density_saturation`) report the cell sum — loss-
  // equivalent by construction. Cached per node until the next refresh.
  [[nodiscard]] std::int32_t local_density(NodeId id);

  // Exact in-range count at `id`'s indexed position, bypassing the cell-sum
  // shortcut and the per-node cache. Reference implementation for the
  // equivalence tests: local_density() must be loss-equivalent to this.
  [[nodiscard]] std::int32_t exact_density(NodeId id) const {
    return count_within(cached_pos_[id.index()], cell_, id);
  }

  // Work counters since construction: rebuild passes (full or incremental)
  // and per-node density recounts (local_density cache misses).
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }
  [[nodiscard]] std::uint64_t density_recounts() const {
    return density_recounts_;
  }

 private:
  // Cells keyed by packed (x, y) 32-bit coordinates; value indexes cells_.
  [[nodiscard]] std::uint64_t key_for(Vec2 p) const {
    const auto x = static_cast<std::int32_t>(std::floor(p.x / cell_));
    const auto y = static_cast<std::int32_t>(std::floor(p.y / cell_));
    return pack(x, y);
  }
  [[nodiscard]] static std::uint64_t pack(std::int32_t x, std::int32_t y) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(y));
  }

  // Node list of the cell at `key`, or nullptr when the cell is empty.
  [[nodiscard]] const std::vector<NodeId>* cell_nodes(std::uint64_t key) const;
  // Mutable cell record for `key`, created on demand.
  std::vector<NodeId>& cell_nodes_mut(std::uint64_t key);

  void rebuild_full();
  void rebuild_incremental();
  [[nodiscard]] std::int32_t compute_density(NodeId id) const;

  const NodeRegistry* registry_;
  double cell_;
  int saturation_;

  // Cell table: packed key -> index into cells_. Cell records are recycled
  // across rebuilds (their node vectors keep capacity); the set of occupied
  // cells is bounded by map area / cell^2 and never shrinks within a run.
  OpenAddressMap<std::uint64_t, std::uint32_t> cell_index_;
  std::vector<std::vector<NodeId>> cells_;

  std::vector<Vec2> cached_pos_;
  std::vector<std::uint64_t> node_cell_;  // current cell key per node

  // Per-node density cache, valid while density_stamp_[i] == stamp_.
  std::vector<std::int32_t> density_;
  std::vector<std::uint64_t> density_stamp_;
  std::uint64_t stamp_ = 0;

  std::uint64_t built_pose_writes_ = ~std::uint64_t{0};

  std::uint64_t rebuilds_ = 0;
  std::uint64_t density_recounts_ = 0;
};

}  // namespace hlsrg
