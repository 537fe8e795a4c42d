// Dense uniform grid over node positions for O(1) neighborhood queries.
//
// Cell size equals the radio range, so a range query touches at most the
// 3x3 cell block around the query point. The grid spans the bounding box of
// the occupied cells at build time and is stored column-major in CSR form:
// cell (cx, cy) has index (cx - x0) * ny + (cy - y0), and its nodes occupy
// the slots [start[c], start[c + 1]) in ascending node id, with each slot's
// id and position held struct-of-arrays. The three rows of one column are
// adjacent slot runs, so a 3x3 walk is three contiguous scans, visiting
// cells dx-outer, dy-inner — the receiver order the radio's RNG draws
// follow.
//
// The index is rebuilt lazily, keyed on the registry's pose-write count and
// node count: while neither has changed since the build, the positions are
// those the build indexed, so refresh() is a no-op and every cached density
// survives. The pose bridge commits a whole mobility tick before any
// protocol broadcasts, so there is at most one rebuild per tick. A rebuild
// is one stable counting sort of all nodes by cell.
//
// Receiver-side contention density is served from a per-slot cache filled
// lazily once per rebuild. Density feeds the radio loss model only through
// `excess = max(0, n - contention_free_neighbors)` (net/radio.h), so any
// count that is provably at or below the saturation threshold yields the
// same loss as the exact count: local_density() returns the 3x3 cell
// population sum when that bound already clears the threshold and falls back
// to the exact distance-filtered count only in saturated neighborhoods.
//
// Every in-range predicate is (x - px)^2 + (y - py)^2 <= r^2 with the two
// products rounded before the sum. The exact count runs one vector kernel
// per slot run (count_in_disc, net/receiver_kernels.h, picked once per
// process for the widest instruction set the CPU has) from the node's
// stored cell, and subtracts the node itself, which is always in range of
// its own position, instead of comparing ids per slot.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.h"
#include "net/node_registry.h"
#include "net/receiver_kernels.h"
#include "sim/time.h"
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
        saturation_(density_saturation),
        count_in_disc_(receiver_kernels().count_in_disc) {}

  // Ensures the index reflects the registry's current positions. `now` is
  // not part of the staleness key (pose writes are); it stays in the
  // signature because callers outside the library pass it. A non-null
  // profiler times the rebuild path (the cheap staleness check is never
  // profiled).
  void refresh(SimTime now, PhaseProfiler* profiler = nullptr);

  // Appends all nodes within `radius` of `p` (excluding `exclude` if valid)
  // to `out`. Caller must refresh() first.
  void query(Vec2 p, double radius, NodeId exclude,
             std::vector<NodeId>* out) const;

  // Same walk, appending the receivers' slots instead of their ids, in the
  // same order. The radio's receiver pass reads each slot's id, position and
  // density from it.
  void query_slots(Vec2 p, double radius, NodeId exclude,
                   std::vector<std::uint32_t>* out) const;

  // Number of nodes within `radius` of `p`, excluding `exclude`. Always the
  // exact distance-filtered count. `radius` must not exceed the cell size;
  // checked.
  [[nodiscard]] int count_within(Vec2 p, double radius, NodeId exclude) const;

  // query() plus, in lockstep, each receiver's cached contention density
  // (see local_density) appended to `density_out`.
  void query_with_density(Vec2 p, double radius, NodeId exclude,
                          std::vector<NodeId>* out,
                          std::vector<std::int32_t>* density_out);

  // Contention density at node `id`: the number of other stations audible at
  // its position, as the radio loss model consumes it. Returns the exact
  // in-range count, except that unsaturated neighborhoods (3x3 cell sum
  // already at or below `density_saturation`) report the cell sum — loss-
  // equivalent by construction. Cached per slot until the next refresh.
  [[nodiscard]] std::int32_t local_density(NodeId id) {
    return slot_density(node_slot_[id.index()]);
  }
  [[nodiscard]] std::int32_t slot_density(std::uint32_t s);

  // Exact in-range count at `id`'s indexed position, bypassing the cell-sum
  // shortcut and the density cache. Reference implementation for the
  // equivalence tests: local_density() must be loss-equivalent to this.
  [[nodiscard]] std::int32_t exact_density(NodeId id) const {
    return exact_slot_density(node_slot_[id.index()]);
  }
  [[nodiscard]] std::int32_t exact_slot_density(std::uint32_t s) const;

  // The slots of the last build: one per node, each with the node's id and
  // indexed position.
  [[nodiscard]] std::size_t size() const { return slot_id_.size(); }
  [[nodiscard]] std::uint32_t slot_of(NodeId id) const {
    return node_slot_[id.index()];
  }
  [[nodiscard]] NodeId slot_id(std::uint32_t s) const { return slot_id_[s]; }
  [[nodiscard]] Vec2 slot_pos(std::uint32_t s) const {
    return {slot_x_[s], slot_y_[s]};
  }
  [[nodiscard]] const double* slot_xs() const { return slot_x_.data(); }
  [[nodiscard]] const double* slot_ys() const { return slot_y_.data(); }

  // Grid column (or row) of coordinate `v`: floor(v / cell_size), computed
  // without a libm call. Exact for |v / cell_size| < 2^63.
  [[nodiscard]] std::int64_t cell_coord(double v) const {
    const double q = v / cell_;
    const auto t = static_cast<std::int64_t>(q);  // rounds toward zero
    return t - static_cast<std::int64_t>(q < static_cast<double>(t));
  }

  // Work counters since construction: rebuild passes and per-slot density
  // recounts (local_density cache misses).
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }
  [[nodiscard]] std::uint64_t density_recounts() const {
    return density_recounts_;
  }

 private:
  // A node's cell, as grid column and row (relative to the bounding box
  // once a rebuild has placed it).
  struct Cell {
    std::int64_t col;
    std::int64_t row;
  };

  [[nodiscard]] Cell grid_cell(Vec2 p) const {
    return {cell_coord(p.x) - x0_, cell_coord(p.y) - y0_};
  }

  // Calls fn(begin, end) for the slot run of each grid column of the 3x3
  // block around `c`, dx ascending; columns and rows off the grid are
  // clipped.
  template <typename Fn>
  void for_each_block_run(Cell c, Fn&& fn) const;

  // Appends value(s) for every slot s within `radius` of `p` in walk order,
  // skipping `exclude`'s slot.
  template <typename T, typename Value>
  void collect(Vec2 p, double radius, NodeId exclude, std::vector<T>* out,
               Value value) const;

  // Nodes within `r2` (squared) of `p`, counted over the 3x3 block around
  // `c`, where `c` is p's grid cell.
  [[nodiscard]] std::int32_t count_block(Cell c, Vec2 p, double r2) const;

  void rebuild();
  [[nodiscard]] std::int32_t compute_density(std::uint32_t s) const;

  const NodeRegistry* registry_;
  double cell_;
  int saturation_;
  decltype(ReceiverKernels::count_in_disc) count_in_disc_;

  // Grid geometry: origin cell and extent of the bounding box.
  std::int64_t x0_ = 0;
  std::int64_t y0_ = 0;
  std::int64_t nx_ = 0;
  std::int64_t ny_ = 0;

  // CSR grid: start_[c] .. start_[c + 1] are cell c's slots.
  std::vector<std::uint32_t> start_;
  std::vector<NodeId> slot_id_;
  std::vector<double> slot_x_;
  std::vector<double> slot_y_;

  // Per node: its slot, and its grid cell.
  std::vector<std::uint32_t> node_slot_;
  std::vector<Cell> node_cell_;

  // Per-slot density cache, valid while density_stamp_[s] == stamp_.
  std::vector<std::int32_t> density_;
  std::vector<std::uint64_t> density_stamp_;
  std::uint64_t stamp_ = 0;

  std::uint64_t built_pose_writes_ = ~std::uint64_t{0};

  std::uint64_t rebuilds_ = 0;
  std::uint64_t density_recounts_ = 0;
};

}  // namespace hlsrg
