#include "harness/digest.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/rsu_agent.h"
#include "core/vehicle_agent.h"
#include "flood/flood_agent.h"
#include "harness/world.h"
#include "rlsmp/rlsmp_agent.h"
#include "util/fnv.h"

namespace hlsrg {

namespace {

// FNV-1a (util/fnv.h) plus the simulation types the state digest mixes.
class StateHash : public Fnv {
 public:
  template <typename Coord>  // GridCoord or CellCoord
  void mix_coord(Coord c) {
    mix_i64(c.col);
    mix_i64(c.row);
  }
  void mix_time(SimTime t) { mix_i64(t.us()); }
  void mix_vec(Vec2 v) {
    mix_double(v.x);
    mix_double(v.y);
  }
};

// Mixes the RunMetrics counters of one digest group, in table order.
void mix_group(StateHash& f, const RunMetrics& m, DigestGroup group) {
  RunMetrics::for_each_field(
      [&](const MetricSpec& spec, std::uint64_t RunMetrics::*field) {
        if (spec.digest == group) f.mix_u64(m.*field);
      });
}

void mix_metrics(StateHash& f, const RunMetrics& m) {
  mix_group(f, m, DigestGroup::kAlways);
  for (int k = 0; k < static_cast<int>(PacketLedger::kSlots); ++k) {
    f.mix_u64(m.channel.offered(k));
    f.mix_u64(m.channel.delivered(k));
    f.mix_u64(m.channel.dropped(k));
    f.mix_u64(m.channel.shed(k));
  }
  f.mix_u64(m.query_latency.count());
  for (std::int64_t us : m.query_latency.samples_us()) f.mix_i64(us);
  // Fault accounting joins the digest only when a fault schedule is active:
  // a zero-fault run must hash byte-identically to a fault-unaware build.
  if (m.fault_plan_digest != 0) {
    f.mix_u64(m.fault_plan_digest);
    mix_group(f, m, DigestGroup::kFault);
  }
  // Same gating idea for infrastructure churn: the counter block only joins
  // the hash when a ChurnManager was constructed, so zero-churn runs stay
  // byte-identical to pre-churn builds.
  if (m.churn_active != 0) mix_group(f, m, DigestGroup::kChurn);
}

// Tables are hashed through snapshot() — the canonical key-sorted view —
// so the digest is a function of table *contents*, not of the arena's
// insertion-and-erase history. mix_records mixes a record count, then `mix`
// over the records (key-sorted by the caller).
template <typename Rec, typename Mix>
void mix_records(StateHash& f, const std::vector<Rec>& records, Mix mix) {
  f.mix_u64(records.size());
  for (const Rec& rec : records) mix(rec);
}

template <typename Table, typename Mix>
void mix_table(StateHash& f, const Table& table, Mix mix) {
  mix_records(f, table.snapshot(), mix);
}

void mix_hlsrg_tables(StateHash& f, const HlsrgService& svc,
                      std::size_t vehicle_count) {
  for (std::size_t i = 0; i < vehicle_count; ++i) {
    const HlsrgVehicleAgent& agent = svc.vehicle_agent(VehicleId{i});
    f.mix_bool(agent.in_center());
    mix_table(f, agent.table(), [&f](const L1Record& rec) {
      f.mix_u64(rec.vehicle.value());
      f.mix_vec(rec.pos);
      f.mix_time(rec.time);
      f.mix_coord(rec.l1);
    });
  }
  for (const auto& rsu : svc.rsu_agents()) {
    f.mix_i64(static_cast<int>(rsu.level()));
    f.mix_coord(rsu.coord());
    // An L2 RSU's summaries (none at L3), in key order.
    std::vector<L2Summary> l2 = rsu.l2_summaries();
    std::sort(l2.begin(), l2.end(),
              [](const L2Summary& a, const L2Summary& b) {
                return a.vehicle < b.vehicle;
              });
    mix_records(f, l2, [&f](const L2Summary& s) {
      f.mix_u64(s.vehicle.value());
      f.mix_time(s.time);
      f.mix_coord(s.l1);
    });
    mix_table(f, rsu.l3_table(), [&f](const L3Summary& s) {
      f.mix_u64(s.vehicle.value());
      f.mix_time(s.time);
      f.mix_coord(s.l2);
      f.mix_coord(s.owner_l3);
    });
    mix_table(f, rsu.full_table(), [&f](const L1Record& rec) {
      f.mix_u64(rec.vehicle.value());
      f.mix_vec(rec.pos);
      f.mix_time(rec.time);
    });
  }
}

void mix_rlsmp_tables(StateHash& f, RlsmpService& svc,
                      std::size_t vehicle_count) {
  const auto mix_cell = [&f](const CellRecord& rec) {
    f.mix_u64(rec.vehicle.value());
    f.mix_vec(rec.pos);
    f.mix_time(rec.time);
    f.mix_coord(rec.cell);
  };
  for (std::size_t i = 0; i < vehicle_count; ++i) {
    const RlsmpVehicleAgent& agent = svc.vehicle_agent(VehicleId{i});
    f.mix_bool(agent.in_leader_region());
    mix_table(f, agent.cell_table(), mix_cell);
    mix_table(f, agent.cluster_table(), mix_cell);
  }
}

void mix_flood_caches(StateHash& f, FloodService& svc,
                      std::size_t vehicle_count) {
  for (std::size_t i = 0; i < vehicle_count; ++i) {
    mix_table(f, svc.vehicle_agent(VehicleId{i}).cache(),
              [&f](const FloodVehicleAgent::CacheEntry& e) {
                f.mix_u64(e.vehicle.value());
                f.mix_vec(e.pos);
                f.mix_time(e.time);
              });
  }
}

void mix_beacon_tables(StateHash& f, const BeaconService& beacons) {
  for (const BeaconService::Table& table : beacons.tables()) {
    mix_table(f, table, [&f](const BeaconService::Neighbor& n) {
      f.mix_u64(n.id.value());
      f.mix_vec(n.heard_pos);
      f.mix_time(n.time);
    });
  }
}

}  // namespace

std::uint64_t state_digest(World& world) {
  StateHash f;

  const Simulator& sim = world.sim();
  f.mix_time(sim.now());

  const MobilityModel& mobility = world.mobility();
  f.mix_u64(mobility.vehicle_count());
  for (std::size_t i = 0; i < mobility.vehicle_count(); ++i) {
    const VehicleId v{i};
    const VehicleState& s = mobility.state(v);
    f.mix_u64(s.seg.valid() ? s.seg.value() : 0);
    f.mix_double(s.offset);
    f.mix_double(s.speed);
    f.mix_bool(s.waiting);
    f.mix_vec(mobility.position(v));
  }

  mix_metrics(f, sim.metrics());

  const std::size_t n = mobility.vehicle_count();
  switch (world.protocol()) {
    case Protocol::kHlsrg:
      mix_hlsrg_tables(f, static_cast<const HlsrgService&>(world.service()),
                       n);
      break;
    case Protocol::kRlsmp:
      mix_rlsmp_tables(f, static_cast<RlsmpService&>(world.service()), n);
      break;
    case Protocol::kFlood:
      mix_flood_caches(f, static_cast<FloodService&>(world.service()), n);
      break;
  }
  if (const BeaconService* beacons = world.beacons()) {
    mix_beacon_tables(f, *beacons);
  }
  return f.value();
}

std::size_t first_digest_mismatch(const std::vector<std::uint64_t>& a,
                                  const std::vector<std::uint64_t>& b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  if (a.size() != b.size()) return n;
  return static_cast<std::size_t>(-1);
}

}  // namespace hlsrg
