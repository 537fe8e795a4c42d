#include "harness/digest.h"

#include <bit>
#include <cstddef>

#include "core/rsu_agent.h"
#include "core/vehicle_agent.h"
#include "harness/world.h"

namespace hlsrg {

namespace {

// FNV-1a, 64-bit.
class Fnv {
 public:
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ (v & 0xff)) * kPrime;
      v >>= 8;
    }
  }
  void mix_i64(std::int64_t v) { mix_u64(static_cast<std::uint64_t>(v)); }
  void mix_double(double v) { mix_u64(std::bit_cast<std::uint64_t>(v)); }
  void mix_bool(bool v) { mix_u64(v ? 1 : 0); }
  void mix_coord(GridCoord c) {
    mix_i64(c.col);
    mix_i64(c.row);
  }
  void mix_time(SimTime t) { mix_i64(t.us()); }
  void mix_vec(Vec2 v) {
    mix_double(v.x);
    mix_double(v.y);
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash_ = 14695981039346656037ULL;
};

// Mixes the RunMetrics counters of one digest group, in table order.
void mix_group(Fnv& f, const RunMetrics& m, DigestGroup group) {
  RunMetrics::for_each_field(
      [&](const MetricSpec& spec, std::uint64_t RunMetrics::*field) {
        if (spec.digest == group) f.mix_u64(m.*field);
      });
}

void mix_metrics(Fnv& f, const RunMetrics& m) {
  mix_group(f, m, DigestGroup::kAlways);
  f.mix_u64(m.channel.total_offered());
  f.mix_u64(m.channel.total_delivered());
  f.mix_u64(m.channel.total_dropped());
  f.mix_u64(m.query_latency.count());
  f.mix_double(m.query_latency.mean_ms());
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
// insertion-and-erase history. The sorted order matches the old FlatTable
// iteration order byte for byte.
void mix_hlsrg_tables(Fnv& f, const HlsrgService& svc,
                      std::size_t vehicle_count) {
  for (std::size_t i = 0; i < vehicle_count; ++i) {
    const HlsrgVehicleAgent& agent = svc.vehicle_agent(VehicleId{i});
    f.mix_bool(agent.in_center());
    f.mix_u64(agent.table().size());
    for (const L1Record& rec : agent.table().snapshot()) {
      f.mix_u64(rec.vehicle.value());
      f.mix_vec(rec.pos);
      f.mix_time(rec.time);
      f.mix_coord(rec.l1);
    }
  }
  for (const auto& rsu : svc.rsu_agents()) {
    f.mix_i64(static_cast<int>(rsu.level()));
    f.mix_coord(rsu.coord());
    f.mix_u64(rsu.l2_table().size());
    for (const L2Summary& s : rsu.l2_table().snapshot()) {
      f.mix_u64(s.vehicle.value());
      f.mix_time(s.time);
      f.mix_coord(s.l1);
    }
    f.mix_u64(rsu.l3_table().size());
    for (const L3Summary& s : rsu.l3_table().snapshot()) {
      f.mix_u64(s.vehicle.value());
      f.mix_time(s.time);
      f.mix_coord(s.l2);
      f.mix_coord(s.owner_l3);
    }
    f.mix_u64(rsu.full_table().size());
    for (const L1Record& rec : rsu.full_table().snapshot()) {
      f.mix_u64(rec.vehicle.value());
      f.mix_vec(rec.pos);
      f.mix_time(rec.time);
    }
  }
}

}  // namespace

std::uint64_t state_digest(World& world) {
  Fnv f;

  const Simulator& sim = world.sim();
  f.mix_time(sim.now());
  f.mix_u64(sim.queue().events_scheduled());
  f.mix_u64(sim.queue().events_dispatched());
  f.mix_u64(sim.queue().events_cancelled());
  f.mix_u64(sim.queue().size());

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

  if (world.protocol() == Protocol::kHlsrg) {
    mix_hlsrg_tables(f, static_cast<const HlsrgService&>(world.service()),
                     mobility.vehicle_count());
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
