#include "net/neighbor_index.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "obs/profiler.h"
#include "util/check.h"

namespace hlsrg {

template <typename Fn>
void NeighborIndex::for_each_block_run(Cell c, Fn&& fn) const {
  const std::int64_t row_lo = std::max<std::int64_t>(c.row - 1, 0);
  const std::int64_t row_hi = std::min<std::int64_t>(c.row + 1, ny_ - 1);
  if (row_lo > row_hi) return;
  const std::int64_t col_lo = std::max<std::int64_t>(c.col - 1, 0);
  const std::int64_t col_hi = std::min<std::int64_t>(c.col + 1, nx_ - 1);
  for (std::int64_t col = col_lo; col <= col_hi; ++col) {
    const auto base = static_cast<std::size_t>(col * ny_);
    fn(start_[base + static_cast<std::size_t>(row_lo)],
       start_[base + static_cast<std::size_t>(row_hi) + 1]);
  }
}

void NeighborIndex::refresh(SimTime /*now*/, PhaseProfiler* profiler) {
  const std::uint64_t pose_writes = registry_->pose_writes();
  if (built_pose_writes_ == pose_writes &&
      node_slot_.size() == registry_->count()) {
    return;  // no pose written and no node added since the build
  }
  ProfileScope scope(profiler, "neighbor_index_rebuild");
  ++rebuilds_;
  ++stamp_;  // invalidates every cached density
  rebuild();
  built_pose_writes_ = pose_writes;
}

void NeighborIndex::rebuild() {
  const std::size_t n = registry_->count();
  node_slot_.resize(n);
  node_cell_.resize(n);
  slot_id_.resize(n);
  slot_x_.resize(n);
  slot_y_.resize(n);
  density_.resize(n);
  density_stamp_.resize(n);

  // Pass 1: each node's absolute cell, and the bounding box of all of them.
  std::int64_t x_lo = 0, x_hi = -1, y_lo = 0, y_hi = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 p = registry_->position(NodeId{i});
    const Cell c{cell_coord(p.x), cell_coord(p.y)};
    node_cell_[i] = c;
    if (i == 0) {
      x_lo = x_hi = c.col;
      y_lo = y_hi = c.row;
    } else {
      x_lo = std::min(x_lo, c.col);
      x_hi = std::max(x_hi, c.col);
      y_lo = std::min(y_lo, c.row);
      y_hi = std::max(y_hi, c.row);
    }
  }
  x0_ = x_lo;
  y0_ = y_lo;
  nx_ = x_hi - x_lo + 1;
  ny_ = y_hi - y_lo + 1;
  constexpr auto kMaxCells =
      static_cast<std::uint64_t>(std::numeric_limits<std::uint32_t>::max());
  HLSRG_CHECK_MSG(ny_ == 0 || static_cast<std::uint64_t>(nx_) <=
                                  kMaxCells / static_cast<std::uint64_t>(ny_),
                  "grid cell count exceeds the slot-offset range");
  const auto cells = static_cast<std::size_t>(nx_ * ny_);

  // Pass 2: grid-relative cells and per-cell counts. Counts land two
  // entries up so that, after the prefix sum, start_[c + 1] is cell c's
  // first slot and the scatter below can advance it in place.
  start_.assign(cells + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    Cell& c = node_cell_[i];
    c.col -= x0_;
    c.row -= y0_;
    ++start_[static_cast<std::size_t>(c.col * ny_ + c.row) + 2];
  }
  for (std::size_t c = 2; c < start_.size(); ++c) start_[c] += start_[c - 1];

  // Pass 3: stable scatter in ascending id. Afterwards start_[c + 1] is
  // cell c's end, i.e. start_[0..cells] are the CSR offsets.
  for (std::size_t i = 0; i < n; ++i) {
    const Cell c = node_cell_[i];
    const std::uint32_t s =
        start_[static_cast<std::size_t>(c.col * ny_ + c.row) + 1]++;
    const Vec2 p = registry_->position(NodeId{i});
    slot_id_[s] = NodeId{i};
    slot_x_[s] = p.x;
    slot_y_[s] = p.y;
    node_slot_[i] = s;
  }
  start_.pop_back();
}

template <typename T, typename Value>
void NeighborIndex::collect(Vec2 p, double radius, NodeId exclude,
                            std::vector<T>* out, Value value) const {
  HLSRG_CHECK(out != nullptr);
  HLSRG_CHECK_MSG(radius <= cell_ + 1e-9,
                  "query radius must not exceed the grid cell size");
  const double r2 = radius * radius;
  const std::uint32_t skip =
      exclude.valid() && exclude.index() < node_slot_.size()
          ? node_slot_[exclude.index()]
          : ~std::uint32_t{0};
  for_each_block_run(grid_cell(p), [&](std::uint32_t b, std::uint32_t e) {
    // Branch-free compaction: every value is written, and the write cursor
    // advances only past the slots in range.
    const std::size_t first = out->size();
    out->resize(first + (e - b));
    T* w = out->data() + first;
    for (std::uint32_t s = b; s < e; ++s) {
      *w = value(s);
      w += static_cast<int>(distance2(slot_pos(s), p) <= r2) &
           static_cast<int>(s != skip);
    }
    out->resize(static_cast<std::size_t>(w - out->data()));
  });
}

void NeighborIndex::query(Vec2 p, double radius, NodeId exclude,
                          std::vector<NodeId>* out) const {
  collect(p, radius, exclude, out,
          [this](std::uint32_t s) { return slot_id_[s]; });
}

void NeighborIndex::query_slots(Vec2 p, double radius, NodeId exclude,
                                std::vector<std::uint32_t>* out) const {
  collect(p, radius, exclude, out, [](std::uint32_t s) { return s; });
}

std::int32_t NeighborIndex::count_block(Cell c, Vec2 p, double r2) const {
  std::int32_t n = 0;
  for_each_block_run(c, [&](std::uint32_t b, std::uint32_t e) {
    n += count_in_disc_(slot_x_.data() + b, slot_y_.data() + b, e - b, p.x,
                        p.y, r2);
  });
  return n;
}

int NeighborIndex::count_within(Vec2 p, double radius, NodeId exclude) const {
  HLSRG_CHECK_MSG(radius <= cell_ + 1e-9,
                  "query radius must not exceed the grid cell size");
  const double r2 = radius * radius;
  const Cell c = grid_cell(p);
  std::int32_t n = count_block(c, p, r2);
  if (exclude.valid() && exclude.index() < node_slot_.size()) {
    // Uncount `exclude` if the block walk visited it and it is in range.
    const Cell ec = node_cell_[exclude.index()];
    const std::uint32_t s = node_slot_[exclude.index()];
    if (std::abs(ec.col - c.col) <= 1 && std::abs(ec.row - c.row) <= 1) {
      n -= count_in_disc_(slot_x_.data() + s, slot_y_.data() + s, 1, p.x, p.y,
                          r2);
    }
  }
  return n;
}

std::int32_t NeighborIndex::exact_slot_density(std::uint32_t s) const {
  // The node itself is at distance 0, always counted: subtract it.
  return count_block(node_cell_[slot_id_[s].index()], slot_pos(s),
                     cell_ * cell_) -
         1;
}

std::int32_t NeighborIndex::compute_density(std::uint32_t s) const {
  if (saturation_ >= 0) {
    // Cell-population bound first: the node's whole in-range neighborhood
    // lies inside its 3x3 cell block, so (block population - itself) bounds
    // the exact count from above. At or below the saturation threshold the
    // loss model cannot distinguish the two (excess is zero either way).
    std::int32_t block = 0;
    for_each_block_run(node_cell_[slot_id_[s].index()],
                       [&](std::uint32_t b, std::uint32_t e) {
                         block += static_cast<std::int32_t>(e - b);
                       });
    const std::int32_t bound = block - 1;
    if (bound <= saturation_) return bound;
  }
  return exact_slot_density(s);
}

std::int32_t NeighborIndex::slot_density(std::uint32_t s) {
  HLSRG_DCHECK(s < density_.size());
  if (density_stamp_[s] != stamp_) {
    ++density_recounts_;
    density_[s] = compute_density(s);
    density_stamp_[s] = stamp_;
  }
  return density_[s];
}

void NeighborIndex::query_with_density(Vec2 p, double radius, NodeId exclude,
                                       std::vector<NodeId>* out,
                                       std::vector<std::int32_t>* density_out) {
  HLSRG_CHECK(out != nullptr && density_out != nullptr);
  const std::size_t first = out->size();
  query(p, radius, exclude, out);
  for (std::size_t i = first; i < out->size(); ++i) {
    density_out->push_back(local_density((*out)[i]));
  }
}

}  // namespace hlsrg
