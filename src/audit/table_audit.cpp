#include "audit/table_audit.h"

#include <sstream>

#include "core/hlsrg_service.h"
#include "core/rsu_agent.h"
#include "core/vehicle_agent.h"
#include "mobility/mobility_model.h"

namespace hlsrg {

namespace {

// Context shared by the per-entry checks.
struct TableCtx {
  const GridHierarchy* h = nullptr;
  SimTime now;
  std::size_t vehicle_count = 0;
  AuditReport* report = nullptr;
};

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

void violation(const TableCtx& ctx, const std::string& where,
               VehicleId vehicle, const std::string& what) {
  std::ostringstream os;
  os << where << " entry for vehicle " << vehicle << " " << what;
  ctx.report->add("table", os.str());
}

bool coord_in_range(const TableCtx& ctx, GridCoord c, GridLevel level) {
  return c.col >= 0 && c.col < ctx.h->cols(level) && c.row >= 0 &&
         c.row < ctx.h->rows(level);
}

// Shared per-entry checks: key validity, timestamp sanity, bounded
// staleness. `max_age` is the level expiry plus two purge periods.
void check_entry(const TableCtx& ctx, const std::string& where,
                 VehicleId vehicle, SimTime time, SimTime max_age) {
  if (!vehicle.valid() || vehicle.index() >= ctx.vehicle_count) {
    violation(ctx, where, vehicle, "keys a vehicle that does not exist");
    return;
  }
  if (time > ctx.now) {
    std::ostringstream os;
    os << "is stamped in the future (" << time.sec() << "s > now "
       << ctx.now.sec() << "s)";
    violation(ctx, where, vehicle, os.str());
  }
  if (time < SimTime()) {
    violation(ctx, where, vehicle, "has a negative timestamp");
  }
  if (ctx.now - time > max_age) {
    std::ostringstream os;
    os << "is stale: age " << (ctx.now - time).sec() << "s exceeds "
       << max_age.sec() << "s (expiry plus two purge periods)";
    violation(ctx, where, vehicle, os.str());
  }
}

}  // namespace

void TableAuditor::check(const AuditScope& scope, AuditReport* report) const {
  const HlsrgService* svc = scope.hlsrg;
  if (svc == nullptr || scope.sim == nullptr || scope.mobility == nullptr) {
    return;
  }

  const HlsrgConfig& cfg = svc->cfg();
  TableCtx ctx{&svc->hierarchy(), scope.sim->now(),
               scope.mobility->vehicle_count(), report};

  // Expiry must be monotone up the hierarchy: a level summarizing another
  // must not forget faster than its source.
  if (cfg.l1_expiry <= SimTime() || cfg.l2_expiry < cfg.l1_expiry ||
      cfg.l3_expiry < cfg.l2_expiry) {
    report->add("table", "expiry configuration is not monotone: need 0 < l1 "
                         "<= l2 <= l3");
  }

  const SimTime l1_max = cfg.l1_expiry + kL2PushPeriod + kL2PushPeriod;
  const SimTime l2_max = cfg.l2_expiry + kL2PushPeriod + kL2PushPeriod;
  const SimTime l3_max = cfg.l3_expiry + kL3GossipPeriod + kL3GossipPeriod;

  for (const auto& agent : svc->rsu_agents()) {
    const std::string where =
        level_str(static_cast<int>(agent.level())) + " RSU " +
        coord_str(agent.coord());

    // Tables live only at their level.
    if (agent.level() == GridLevel::kL2 && !agent.l3_table().empty()) {
      report->add("table", where + " holds an L3 table");
    }

    // Each table's location string, built once per table.
    const std::string l3_where = where + " l3_table";
    for (const L3Summary& s : agent.l3_table().snapshot()) {
      check_entry(ctx, l3_where, s.vehicle, s.time, l3_max);
      if (!coord_in_range(ctx, s.l2, GridLevel::kL2)) {
        violation(ctx, l3_where, s.vehicle,
                  "references out-of-range L2 grid " + coord_str(s.l2));
      }
      if (!coord_in_range(ctx, s.owner_l3, GridLevel::kL3)) {
        violation(ctx, l3_where, s.vehicle,
                  "references out-of-range L3 region " +
                      coord_str(s.owner_l3));
      }
    }

    const bool at_l2 = agent.level() == GridLevel::kL2;
    const SimTime full_max = at_l2 ? l2_max : l3_max;
    const std::string full_where = where + " full_table";
    for (const L1Record& rec : agent.full_table().snapshot()) {
      check_entry(ctx, full_where, rec.vehicle, rec.time, full_max);
      if (!coord_in_range(ctx, rec.l1, GridLevel::kL1)) {
        violation(ctx, full_where, rec.vehicle,
                  "references out-of-range L1 grid " + coord_str(rec.l1));
      }
      // Summarization at L3: full and summary tables are written together
      // (newest-wins), so a fresh full record implies a summary at least as
      // new. Stale full records may outlive their summary between purges.
      // An L2 RSU's summaries are its full records thinned, so the law
      // holds there by construction.
      if (!at_l2 && ctx.now - rec.time <= cfg.l3_expiry) {
        const L3Summary* s = agent.l3_table().find(rec.vehicle);
        if (s == nullptr) {
          violation(ctx, full_where, rec.vehicle,
                    "is fresh but has no summary-table entry");
        } else if (s->time < rec.time) {
          violation(ctx, full_where, rec.vehicle,
                    "is newer than its summary-table entry");
        }
      }
    }
  }

  // Grid-center L1 tables on vehicles.
  for (std::size_t i = 0; i < ctx.vehicle_count; ++i) {
    const HlsrgVehicleAgent& agent = svc->vehicle_agent(VehicleId{i});
    if (!agent.in_center()) {
      if (!agent.table().empty()) {
        std::ostringstream os;
        os << "vehicle " << agent.vehicle()
           << " holds an L1 table without center duty";
        report->add("table", os.str());
      }
      continue;
    }
    std::ostringstream os;
    os << "center vehicle " << agent.vehicle() << " l1_table";
    const std::string where = os.str();
    for (const L1Record& rec : agent.table().snapshot()) {
      check_entry(ctx, where, rec.vehicle, rec.time, l1_max);
      if (!coord_in_range(ctx, rec.l1, GridLevel::kL1)) {
        violation(ctx, where, rec.vehicle,
                  "references out-of-range L1 grid " + coord_str(rec.l1));
      }
    }
  }
}

}  // namespace hlsrg
