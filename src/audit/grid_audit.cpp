#include "audit/grid_audit.h"

#include <cmath>
#include <sstream>

#include "grid/hierarchy.h"
#include "roadnet/road_network.h"

namespace hlsrg {

namespace {

// Boundary lines sit on real roads, which build_partition accepts when they
// run within kEdgeTol (1 m) of the map edge — so the outermost lines may
// miss the geometric bounds by up to that much.
constexpr double kCoverTol = 1.5;
// Slack for exact-by-construction coordinate comparisons (cells share the
// same boundary line values, so any drift is a genuine bug).
constexpr double kExactTol = 1e-9;

constexpr GridLevel kLevels[] = {GridLevel::kL1, GridLevel::kL2,
                                 GridLevel::kL3};

std::string coord_str(GridCoord c) {
  std::ostringstream os;
  os << "(" << c.col << "," << c.row << ")";
  return os.str();
}

// "L<n>". Built by append rather than `"L" + std::to_string(n)`: GCC 12
// raises a false -Wrestrict on that literal-plus-temporary chain (GCC bug
// 105651), which -Werror turns into a build failure.
std::string level_str(int level) {
  std::string out = "L";
  out += std::to_string(level);
  return out;
}

void check_axis(const char* axis, const std::vector<BoundaryLine>& lines,
                double lo, double hi, AuditReport* report) {
  if (lines.size() < 2) {
    std::ostringstream os;
    os << axis << " axis has " << lines.size()
       << " boundary lines; need at least 2";
    report->add("grid", os.str());
    return;
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].coord <= lines[i - 1].coord) {
      std::ostringstream os;
      os << axis << " boundary lines not strictly increasing at index " << i
         << " (" << lines[i - 1].coord << " then " << lines[i].coord << ")";
      report->add("grid", os.str());
    }
  }
  if (std::abs(lines.front().coord - lo) > kCoverTol ||
      std::abs(lines.back().coord - hi) > kCoverTol) {
    std::ostringstream os;
    os << axis << " boundary lines span [" << lines.front().coord << ", "
       << lines.back().coord << "] but map spans [" << lo << ", " << hi
       << "]; partition does not cover the map";
    report->add("grid", os.str());
  }
}

}  // namespace

void GridAuditor::check(const AuditScope& scope, AuditReport* report) const {
  const GridHierarchy* h = scope.hierarchy;
  if (h == nullptr) return;

  const Partition& part = h->partition();
  const Aabb map = scope.net != nullptr
                       ? scope.net->bounds()
                       : Aabb{{part.x_lines.front().coord,
                               part.y_lines.front().coord},
                              {part.x_lines.back().coord,
                               part.y_lines.back().coord}};
  check_axis("x", part.x_lines, map.lo.x, map.hi.x, report);
  check_axis("y", part.y_lines, map.lo.y, map.hi.y, report);
  if (!report->ok()) return;  // tiling checks assume ordered lines

  const Aabb span{{part.x_lines.front().coord, part.y_lines.front().coord},
                  {part.x_lines.back().coord, part.y_lines.back().coord}};

  for (GridLevel level : kLevels) {
    const int cols = h->cols(level);
    const int rows = h->rows(level);
    if (cols < 1 || rows < 1) {
      std::ostringstream os;
      os << "level " << static_cast<int>(level) << " is " << cols << "x"
         << rows << " cells; must be at least 1x1";
      report->add("grid", os.str());
      continue;
    }
    for (int row = 0; row < rows; ++row) {
      for (int col = 0; col < cols; ++col) {
        const GridCoord c{col, row};
        const Aabb box = h->cell_box(c, level);
        const int lvl = static_cast<int>(level);

        if (box.width() <= 0.0 || box.height() <= 0.0) {
          report->add("grid", level_str(lvl) + " cell " +
                                  coord_str(c) + " has non-positive area");
          continue;
        }
        // Tiling: the first/last cells reach the partition span and each
        // cell abuts its east/north neighbor exactly. With ordered lines
        // this proves full coverage with no overlap (cells are half-open).
        if (col == 0 && std::abs(box.lo.x - span.lo.x) > kExactTol) {
          report->add("grid", level_str(lvl) + " west edge gap at " +
                                  coord_str(c));
        }
        if (row == 0 && std::abs(box.lo.y - span.lo.y) > kExactTol) {
          report->add("grid", level_str(lvl) +
                                  " south edge gap at " + coord_str(c));
        }
        if (col + 1 < cols) {
          const Aabb east = h->cell_box({col + 1, row}, level);
          if (std::abs(box.hi.x - east.lo.x) > kExactTol) {
            report->add("grid", level_str(lvl) + " cells " +
                                    coord_str(c) + " and " +
                                    coord_str({col + 1, row}) +
                                    " overlap or leave a gap");
          }
        } else if (std::abs(box.hi.x - span.hi.x) > kExactTol) {
          report->add("grid", level_str(lvl) + " east edge gap at " +
                                  coord_str(c));
        }
        if (row + 1 < rows) {
          const Aabb north = h->cell_box({col, row + 1}, level);
          if (std::abs(box.hi.y - north.lo.y) > kExactTol) {
            report->add("grid", level_str(lvl) + " cells " +
                                    coord_str(c) + " and " +
                                    coord_str({col, row + 1}) +
                                    " overlap or leave a gap");
          }
        } else if (std::abs(box.hi.y - span.hi.y) > kExactTol) {
          report->add("grid", level_str(lvl) +
                                  " north edge gap at " + coord_str(c));
        }

        // Point-mapping round trip through the cell's interior.
        if (!(h->coord_at(box.center(), level) == c)) {
          report->add("grid", level_str(lvl) + " cell " +
                                  coord_str(c) +
                                  " does not contain its own center point");
        }
        // Dense-id round trip.
        if (!(h->coord_of(h->id_of(c, level), level) == c)) {
          report->add("grid", level_str(lvl) + " id round trip " +
                                  "broken at " + coord_str(c));
        }
        // Every cell has a real center intersection inside the map.
        if (!h->center(c, level).valid()) {
          report->add("grid", level_str(lvl) + " cell " +
                                  coord_str(c) + " has no center intersection");
        } else if (!map.contains_closed(h->center_pos(c, level), kCoverTol)) {
          report->add("grid", level_str(lvl) + " cell " +
                                  coord_str(c) +
                                  " center intersection lies outside the map");
        }
      }
    }
  }

  // Parent reachability: every L1 cell nests inside an in-range L2 and L3
  // parent cell.
  for (int row = 0; row < h->rows(GridLevel::kL1); ++row) {
    for (int col = 0; col < h->cols(GridLevel::kL1); ++col) {
      const GridCoord l1{col, row};
      const Aabb child = h->cell_box(l1, GridLevel::kL1);
      for (GridLevel level : {GridLevel::kL2, GridLevel::kL3}) {
        const GridCoord p = GridHierarchy::parent(l1, level);
        const int lvl = static_cast<int>(level);
        if (p.col < 0 || p.col >= h->cols(level) || p.row < 0 ||
            p.row >= h->rows(level)) {
          report->add("grid", "L1 cell " + coord_str(l1) + " has L" +
                                  std::to_string(lvl) +
                                  " parent out of range: " + coord_str(p));
          continue;
        }
        const Aabb parent_box = h->cell_box(p, level);
        if (!parent_box.contains_closed(child.center(), kExactTol)) {
          report->add("grid", "L1 cell " + coord_str(l1) +
                                  " lies outside its L" + std::to_string(lvl) +
                                  " parent " + coord_str(p));
        }
      }
    }
  }
}

}  // namespace hlsrg
