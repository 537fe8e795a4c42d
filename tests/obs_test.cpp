// Tests for the region observatory (src/obs): the position→region mapper
// against the grid hierarchy, the conservation laws tying per-region
// counters to the global ledger, traffic-matrix consistency, the phase
// profiler's tree/merge/export semantics, and — the load-bearing guarantee —
// that enabling the profiler cannot move a determinism digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "grid/hierarchy.h"
#include "harness/digest.h"
#include "harness/runner.h"
#include "harness/world.h"
#include "obs/profiler.h"
#include "obs/region_telemetry.h"
#include "report/json.h"

namespace hlsrg {
namespace {

// Short horizon, small map: enough traffic for every counter family to fire
// without bench-scale run times.
ScenarioConfig obs_scenario(int vehicles, std::uint64_t seed) {
  ScenarioConfig cfg = paper_scenario(vehicles, seed);
  cfg.warmup = SimTime::from_sec(20.0);
  cfg.query_window = SimTime::from_sec(15.0);
  cfg.grace = SimTime::from_sec(25.0);
  return cfg;
}

// 4 km map => 4 L3 regions (paper map is 2 km = a single region), so the
// cross-region matrix and the region mapper have real work to do.
ScenarioConfig multi_region_scenario(int vehicles, std::uint64_t seed) {
  ScenarioConfig cfg = obs_scenario(vehicles, seed);
  cfg.map.size_m = 4000.0;
  return cfg;
}

struct RegionSums {
  std::uint64_t radio_broadcasts = 0;
  std::uint64_t radio_unicasts = 0;
  std::uint64_t radio_delivered = 0;
  std::uint64_t radio_dropped = 0;
  std::uint64_t wired_out = 0;
  std::uint64_t wired_in = 0;
  std::uint64_t wired_dropped = 0;
  std::uint64_t updates = 0;
  std::uint64_t queries_served = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t queries_shed = 0;
};

RegionSums sum_regions(const RegionTelemetry& r) {
  RegionSums s;
  for (int i = 0; i < r.region_count(); ++i) {
    const RegionCounters& c = r.at(i);
    s.radio_broadcasts += c.radio_broadcasts;
    s.radio_unicasts += c.radio_unicasts;
    s.radio_delivered += c.radio_delivered;
    s.radio_dropped += c.radio_dropped;
    s.wired_out += c.wired_out;
    s.wired_in += c.wired_in;
    s.wired_dropped += c.wired_dropped;
    s.updates += c.updates;
    s.queries_served += c.queries_served;
    s.cache_hits += c.cache_hits;
    s.queries_shed += c.queries_shed;
  }
  return s;
}

// The laws from the region_telemetry.h header comment, applied to one run.
void expect_conservation(const World& world) {
  const RegionTelemetry& r = world.regions();
  const RunMetrics& m = world.metrics();
  const RegionSums s = sum_regions(r);
  EXPECT_EQ(s.radio_broadcasts, m.radio_broadcasts);
  EXPECT_EQ(s.radio_unicasts, m.radio_unicasts);
  EXPECT_EQ(s.radio_dropped, m.radio_drops);
  EXPECT_EQ(s.updates, m.update_packets_originated);
  EXPECT_EQ(s.queries_served, m.server_lookup_hits + m.rsu_lookup_hits);
  EXPECT_EQ(s.cache_hits, m.cache_hits);
  EXPECT_EQ(s.queries_shed, m.queries_shed + m.retries_shed);
  EXPECT_EQ(s.radio_delivered + s.wired_in, m.channel.total_delivered());
  EXPECT_EQ(s.radio_dropped + s.wired_dropped, m.channel.total_dropped());

  // Matrix consistency: row sums are the source region's wired_out, column
  // sums the destination's wired_in, and the hop total is the global
  // per-hop wired message count.
  const int n = r.region_count();
  std::uint64_t hop_total = 0;
  for (int from = 0; from < n; ++from) {
    std::uint64_t row = 0;
    for (int to = 0; to < n; ++to) {
      row += r.matrix_packets(from, to);
      hop_total += r.matrix_hops(from, to);
      if (r.matrix_packets(from, to) > 0) {
        EXPECT_GT(r.matrix_bytes(from, to), 0u) << from << "->" << to;
      }
    }
    EXPECT_EQ(row, r.at(from).wired_out) << "row " << from;
  }
  for (int to = 0; to < n; ++to) {
    std::uint64_t col = 0;
    for (int from = 0; from < n; ++from) col += r.matrix_packets(from, to);
    EXPECT_EQ(col, r.at(to).wired_in) << "col " << to;
  }
  EXPECT_EQ(hop_total, m.wired_messages);
}

// ---------------------------------------------------------------------------
// Region mapper
// ---------------------------------------------------------------------------

// L1 interval of v over boundary lines: upper_bound - 1 clamped to
// [0, n - 1] (half-open cells, outside positions clamped to the edge cells).
int reference_l1(const std::vector<BoundaryLine>& lines, double v) {
  const auto it = std::upper_bound(
      lines.begin(), lines.end(), v,
      [](double value, const BoundaryLine& l) { return value < l.coord; });
  const int idx = static_cast<int>(it - lines.begin()) - 1;
  return std::clamp(idx, 0, static_cast<int>(lines.size()) - 2);
}

// Every boundary line and the next double on both sides of it, the cell
// midpoints, and positions outside the map.
std::vector<double> axis_probes(const std::vector<BoundaryLine>& lines) {
  std::vector<double> probes = {lines.front().coord - 100.0,
                                lines.back().coord + 100.0};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const double c = lines[i].coord;
    probes.push_back(c);
    probes.push_back(std::nextafter(c, -1e300));
    probes.push_back(std::nextafter(c, 1e300));
    if (i + 1 < lines.size()) probes.push_back(0.5 * (c + lines[i + 1].coord));
  }
  return probes;
}

// Checks both coord_at(p, kL3) and region_of(p) against the upper_bound
// reference over the hierarchy's partition lines.
void expect_region_mapping_matches_reference(const World& world) {
  const GridHierarchy& h = world.hierarchy();
  const RegionTelemetry& r = world.regions();
  ASSERT_TRUE(r.configured());
  EXPECT_EQ(r.cols(), h.cols(GridLevel::kL3));
  EXPECT_EQ(r.rows(), h.rows(GridLevel::kL3));
  const Partition& part = h.partition();
  const std::vector<double> xs = axis_probes(part.x_lines);
  const std::vector<double> ys = axis_probes(part.y_lines);
  for (double y : ys) {
    for (double x : xs) {
      const Vec2 p{x, y};
      const GridCoord want{reference_l1(part.x_lines, x) / 4,
                           reference_l1(part.y_lines, y) / 4};
      ASSERT_EQ(h.coord_at(p, GridLevel::kL3), want)
          << "at (" << x << ", " << y << ")";
      ASSERT_EQ(r.region_of(p), want.row * r.cols() + want.col)
          << "at (" << x << ", " << y << ")";
    }
  }
}

TEST(RegionTelemetryTest, RegionOfMatchesHierarchyCoordAt) {
  const World world(multi_region_scenario(10, 11), Protocol::kHlsrg);
  EXPECT_GE(world.regions().region_count(), 4);
  expect_region_mapping_matches_reference(world);

  // 8 km map: 16x16 L1 cells, 4x4 L3 regions.
  ScenarioConfig cfg = multi_region_scenario(10, 12);
  cfg.map.size_m = 8000.0;
  const World city(cfg, Protocol::kHlsrg);
  EXPECT_EQ(city.hierarchy().cols(GridLevel::kL1), 16);
  EXPECT_EQ(city.hierarchy().rows(GridLevel::kL1), 16);
  EXPECT_EQ(city.regions().region_count(), 16);
  expect_region_mapping_matches_reference(city);
}

// ---------------------------------------------------------------------------
// Counter conservation per protocol
// ---------------------------------------------------------------------------

TEST(RegionConservationTest, HlsrgSingleRegion) {
  World world(obs_scenario(100, 21), Protocol::kHlsrg);
  world.run();
  EXPECT_GT(world.metrics().radio_broadcasts, 0u);
  EXPECT_GT(world.metrics().update_packets_originated, 0u);
  expect_conservation(world);
}

TEST(RegionConservationTest, HlsrgMultiRegionWithWiredMatrix) {
  World world(multi_region_scenario(220, 22), Protocol::kHlsrg);
  world.run();
  EXPECT_GT(world.metrics().wired_messages, 0u);
  expect_conservation(world);
  // Cross-region forwarding must put traffic off the matrix diagonal.
  const RegionTelemetry& r = world.regions();
  std::uint64_t off_diagonal = 0;
  for (int from = 0; from < r.region_count(); ++from) {
    for (int to = 0; to < r.region_count(); ++to) {
      if (from != to) off_diagonal += r.matrix_packets(from, to);
    }
  }
  EXPECT_GT(off_diagonal, 0u);
}

TEST(RegionConservationTest, Rlsmp) {
  World world(obs_scenario(100, 23), Protocol::kRlsmp);
  world.run();
  EXPECT_GT(world.metrics().update_packets_originated, 0u);
  expect_conservation(world);
}

TEST(RegionConservationTest, Flood) {
  World world(obs_scenario(80, 24), Protocol::kFlood);
  world.run();
  EXPECT_GT(world.metrics().update_packets_originated, 0u);
  expect_conservation(world);
}

TEST(RegionConservationTest, ServiceTierShedsAttributed) {
  ScenarioConfig cfg = obs_scenario(120, 25);
  cfg.map.size_m = 1000.0;
  cfg.source_fraction = 0.0;
  cfg.service.enabled = true;
  cfg.service.open_loop_rate_per_sec = 40.0;
  cfg.service.max_outstanding = 4;  // absurdly tight: shedding must fire
  World world(cfg, Protocol::kHlsrg);
  world.run();
  EXPECT_GT(world.metrics().queries_shed, 0u);
  expect_conservation(world);
}

// ---------------------------------------------------------------------------
// RegionTelemetry unit behavior
// ---------------------------------------------------------------------------

RegionTelemetry two_by_two() {
  // Two L1 rows/cols of 4 => 8 edges per axis would be the real shape; for
  // unit purposes 8 L1 intervals per axis gives exactly 2 L3 cells per axis.
  std::vector<double> edges;
  for (int i = 0; i <= 8; ++i) edges.push_back(i * 100.0);
  return RegionTelemetry(edges, edges);
}

TEST(RegionTelemetryTest, WiredMatrixUpdatesEndpointCounters) {
  RegionTelemetry r = two_by_two();
  ASSERT_EQ(r.region_count(), 4);
  r.add_wired_delivered(0, 3, 2, 128);
  r.add_wired_delivered(0, 3, 3, 64);
  r.add_wired_delivered(3, 0, 1, 32);
  r.add_wired_dropped(1);
  EXPECT_EQ(r.matrix_packets(0, 3), 2u);
  EXPECT_EQ(r.matrix_hops(0, 3), 5u);
  EXPECT_EQ(r.matrix_bytes(0, 3), 192u);
  EXPECT_EQ(r.matrix_packets(3, 0), 1u);
  EXPECT_EQ(r.at(0).wired_out, 2u);
  EXPECT_EQ(r.at(3).wired_in, 2u);
  EXPECT_EQ(r.at(3).wired_out, 1u);
  EXPECT_EQ(r.at(0).wired_in, 1u);
  EXPECT_EQ(r.at(1).wired_dropped, 1u);
}

TEST(RegionTelemetryTest, LoadImbalanceSummary) {
  RegionTelemetry r = two_by_two();
  // Loads {4, 0, 0, 0}: mean 1, max/mean 4, variance 3 => cv = sqrt(3).
  r.at(0).radio_delivered = 3;
  r.at(0).wired_in = 1;
  const RegionTelemetry::Imbalance imb = r.load_imbalance();
  EXPECT_EQ(imb.total_load, 4u);
  EXPECT_DOUBLE_EQ(imb.max_over_mean, 4.0);
  EXPECT_DOUBLE_EQ(imb.cv, std::sqrt(3.0));

  // Uniform load => both measures collapse to their floor.
  RegionTelemetry uniform = two_by_two();
  for (int i = 0; i < 4; ++i) uniform.at(i).radio_delivered = 7;
  const RegionTelemetry::Imbalance u = uniform.load_imbalance();
  EXPECT_DOUBLE_EQ(u.max_over_mean, 1.0);
  EXPECT_DOUBLE_EQ(u.cv, 0.0);
}

TEST(RegionTelemetryTest, MergeAddsCountersAndAdoptsGeometry) {
  RegionTelemetry a = two_by_two();
  RegionTelemetry b = two_by_two();
  a.at(2).radio_broadcasts = 5;
  b.at(2).radio_broadcasts = 7;
  a.add_wired_delivered(1, 2, 4, 100);
  b.add_wired_delivered(1, 2, 6, 50);
  a.push_sample(5.0, {1, 2, 3, 4}, {0, 0, 0, 0}, {0, 0, 0, 0});
  b.push_sample(5.0, {9, 9, 9, 9}, {0, 0, 0, 0}, {0, 0, 0, 0});

  // An unconfigured shell adopts the first source wholesale (the harness
  // aggregate starts like this), then further merges add element-wise with
  // series keeping the first replica.
  RegionTelemetry merged;
  EXPECT_FALSE(merged.configured());
  merged.merge(a);
  merged.merge(b);
  ASSERT_TRUE(merged.configured());
  EXPECT_EQ(merged.region_count(), 4);
  EXPECT_EQ(merged.replicas(), 2);
  EXPECT_EQ(merged.at(2).radio_broadcasts, 12u);
  EXPECT_EQ(merged.matrix_packets(1, 2), 2u);
  EXPECT_EQ(merged.matrix_hops(1, 2), 10u);
  EXPECT_EQ(merged.matrix_bytes(1, 2), 150u);
  EXPECT_EQ(merged.sample_count(), 1u);
}

TEST(RegionTelemetryTest, ObsDocumentSchemaAndNullProfile) {
  RegionTelemetry r = two_by_two();
  const JsonValue doc = obs_document(r, nullptr);
  EXPECT_EQ(doc.at("schema").as_string(), "hlsrg-obs/v1");
  EXPECT_TRUE(doc.at("telemetry").is_object());
  EXPECT_TRUE(doc.at("profile").is_null());

  PhaseProfiler prof;
  {
    ProfileScope s(&prof, "phase");
  }
  const JsonValue with = obs_document(r, &prof);
  EXPECT_TRUE(with.at("profile").is_object());
}

// ---------------------------------------------------------------------------
// Phase profiler
// ---------------------------------------------------------------------------

TEST(PhaseProfilerTest, TreeShapeAndTimes) {
  PhaseProfiler p;
  EXPECT_TRUE(p.empty());
  p.begin("outer");
  p.begin("inner");
  p.end(30);
  p.begin("inner");
  p.end(50);
  p.end(100);
  EXPECT_FALSE(p.empty());

  const int outer = p.find("outer");
  ASSERT_GE(outer, 0);
  const int inner = p.find("inner", outer);
  ASSERT_GE(inner, 0);
  EXPECT_EQ(p.find("inner"), -1);  // not a child of root
  const PhaseProfiler::Node& o = p.nodes()[static_cast<std::size_t>(outer)];
  const PhaseProfiler::Node& i = p.nodes()[static_cast<std::size_t>(inner)];
  EXPECT_EQ(o.calls, 1u);
  EXPECT_EQ(i.calls, 2u);
  EXPECT_EQ(o.inclusive_ns, 100u);
  EXPECT_EQ(i.inclusive_ns, 80u);
  EXPECT_EQ(o.exclusive_ns(), 20u);
  EXPECT_EQ(i.exclusive_ns(), 80u);
}

TEST(PhaseProfilerTest, ExclusiveClampsWhenChildrenOverrun) {
  // Independent clock truncation can make child sums exceed the parent by a
  // few ns; self time clamps at zero instead of wrapping.
  PhaseProfiler p;
  p.begin("outer");
  p.begin("inner");
  p.end(110);
  p.end(100);
  const int outer = p.find("outer");
  EXPECT_EQ(p.nodes()[static_cast<std::size_t>(outer)].exclusive_ns(), 0u);
}

TEST(PhaseProfilerTest, MergeMatchesByNamePath) {
  PhaseProfiler a;
  a.begin("run");
  a.begin("dispatch");
  a.end(10);
  a.end(25);

  PhaseProfiler b;
  b.begin("run");
  b.begin("dispatch");
  b.end(40);
  b.begin("audit");  // only in b: structure is the union
  b.end(5);
  b.end(60);

  a.merge(b);
  const int run = a.find("run");
  ASSERT_GE(run, 0);
  const int dispatch = a.find("dispatch", run);
  const int audit = a.find("audit", run);
  ASSERT_GE(dispatch, 0);
  ASSERT_GE(audit, 0);
  EXPECT_EQ(a.nodes()[static_cast<std::size_t>(run)].calls, 2u);
  EXPECT_EQ(a.nodes()[static_cast<std::size_t>(run)].inclusive_ns, 85u);
  EXPECT_EQ(a.nodes()[static_cast<std::size_t>(dispatch)].inclusive_ns, 50u);
  EXPECT_EQ(a.nodes()[static_cast<std::size_t>(audit)].inclusive_ns, 5u);
}

TEST(PhaseProfilerTest, ToJsonSortsChildrenByName) {
  PhaseProfiler p;
  p.begin("zebra");
  p.end(1);
  p.begin("alpha");
  p.end(2);
  const JsonValue doc = p.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "hlsrg-profile/v1");
  const JsonValue& children = doc.at("root").at("children");
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children.items()[0].at("name").as_string(), "alpha");
  EXPECT_EQ(children.items()[1].at("name").as_string(), "zebra");
}

TEST(PhaseProfilerTest, NullProfilerScopeIsNoOp) {
  // Must compile to two pointer checks and touch nothing.
  ProfileScope scope(nullptr, "anything");
}

TEST(PhaseProfilerTest, RealClockScopesAccumulate) {
  PhaseProfiler p;
  {
    ProfileScope outer(&p, "outer");
    ProfileScope inner(&p, "inner");
  }
  const int outer = p.find("outer");
  ASSERT_GE(outer, 0);
  ASSERT_GE(p.find("inner", outer), 0);
  // Monotonic clock: parent includes the child.
  const PhaseProfiler::Node& o = p.nodes()[static_cast<std::size_t>(outer)];
  EXPECT_GE(o.inclusive_ns, o.child_ns);
}

// ---------------------------------------------------------------------------
// Digest neutrality: profiling on/off must not move the determinism digest
// ---------------------------------------------------------------------------

void expect_profile_digest_neutral(Protocol protocol, std::uint64_t seed) {
  ScenarioConfig off = obs_scenario(60, seed);
  ScenarioConfig on = off;
  on.profile = true;

  World a(off, protocol);
  World b(on, protocol);
  a.run();
  b.run();
  EXPECT_EQ(a.profiler(), nullptr);
  ASSERT_NE(b.profiler(), nullptr);
  EXPECT_FALSE(b.profiler()->empty());
  EXPECT_EQ(state_digest(a), state_digest(b));
}

TEST(ProfilerDigestTest, HlsrgNeutral) {
  expect_profile_digest_neutral(Protocol::kHlsrg, 31);
}

TEST(ProfilerDigestTest, RlsmpNeutral) {
  expect_profile_digest_neutral(Protocol::kRlsmp, 32);
}

TEST(ProfilerDigestTest, FloodNeutral) {
  expect_profile_digest_neutral(Protocol::kFlood, 33);
}

// Replica aggregation: the runner merges telemetry and profiles in replica
// order, so counters scale with the replica count and the profile tree is
// the union of the per-replica trees.
TEST(RunnerObsTest, ReplicaMergeSumsTelemetry) {
  ScenarioConfig cfg = obs_scenario(60, 34);
  cfg.profile = true;
  const ReplicaSet one = run_replicas(cfg, Protocol::kHlsrg, 1);
  const ReplicaSet two = run_replicas(cfg, Protocol::kHlsrg, 2);
  ASSERT_TRUE(one.regions.configured());
  ASSERT_TRUE(two.regions.configured());
  EXPECT_EQ(one.regions.replicas(), 1);
  EXPECT_EQ(two.regions.replicas(), 2);
  // Replica 0 is deterministic, so the 2-replica aggregate strictly
  // contains the 1-replica counters.
  const RegionSums s1 = sum_regions(one.regions);
  const RegionSums s2 = sum_regions(two.regions);
  EXPECT_GE(s2.radio_broadcasts, s1.radio_broadcasts);
  EXPECT_GT(s1.radio_broadcasts, 0u);
  EXPECT_FALSE(two.profile.empty());
}

}  // namespace
}  // namespace hlsrg
