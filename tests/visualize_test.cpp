// Tests for the SVG world renderer and for workload/percentile additions
// that the examples rely on.
#include <gtest/gtest.h>

#include "harness/visualize.h"
#include "harness/world.h"
#include "sim/counters.h"

namespace hlsrg {
namespace {

TEST(VisualizeTest, FullWorldRenderContainsAllLayers) {
  ScenarioConfig cfg = paper_scenario(50, 71);
  World world(cfg, Protocol::kHlsrg);
  world.run_until(SimTime::from_sec(5));
  VisualizeOptions options;
  options.draw_vehicles = true;
  const std::string svg = render_world_svg(
      world.network(), world.hierarchy(), world.rsus(), &world.mobility(),
      options);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("stroke-dasharray"), std::string::npos);  // boundaries
  EXPECT_NE(svg.find("#1565c0"), std::string::npos);           // centers
  EXPECT_NE(svg.find("#c62828"), std::string::npos);           // L3 layer
  EXPECT_NE(svg.find("<circle"), std::string::npos);
}

TEST(VisualizeTest, LayersCanBeDisabled) {
  ScenarioConfig cfg = paper_scenario(20, 72);
  World world(cfg, Protocol::kHlsrg);
  VisualizeOptions options;
  options.draw_partition = false;
  options.draw_centers = false;
  options.draw_rsus = false;
  options.draw_vehicles = false;
  const std::string svg = render_world_svg(
      world.network(), world.hierarchy(), world.rsus(), &world.mobility(),
      options);
  EXPECT_EQ(svg.find("stroke-dasharray"), std::string::npos);
  EXPECT_EQ(svg.find("#1565c0"), std::string::npos);
}

TEST(VisualizeTest, NullRsusAndMobilityAreSkipped) {
  ScenarioConfig cfg = paper_scenario(20, 73);
  cfg.hlsrg.use_rsus = false;
  World world(cfg, Protocol::kHlsrg);
  VisualizeOptions options;
  options.draw_vehicles = true;  // requested but mobility passed as null
  const std::string svg = render_world_svg(world.network(), world.hierarchy(),
                                           nullptr, nullptr, options);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
}

// --- percentiles -------------------------------------------------------------

TEST(PercentileTest, ExactNearestRank) {
  LatencyStat s;
  for (int ms : {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}) {
    s.add(SimTime::from_ms(ms));
  }
  EXPECT_DOUBLE_EQ(s.percentile_ms(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.p50_ms(), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile_ms(0.9), 90.0);
  EXPECT_DOUBLE_EQ(s.p99_ms(), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile_ms(1.0), 100.0);
}

TEST(PercentileTest, UnorderedInsertionStillSorted) {
  LatencyStat s;
  for (int ms : {90, 10, 50, 70, 30}) s.add(SimTime::from_ms(ms));
  EXPECT_DOUBLE_EQ(s.p50_ms(), 50.0);
}

TEST(PercentileTest, EmptyIsZero) {
  LatencyStat s;
  EXPECT_DOUBLE_EQ(s.p95_ms(), 0.0);
}

TEST(PercentileTest, MergePoolsPercentiles) {
  LatencyStat a, b;
  a.add(SimTime::from_ms(10));
  a.add(SimTime::from_ms(20));
  b.add(SimTime::from_ms(30));
  b.add(SimTime::from_ms(40));
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.p50_ms(), 20.0);
  EXPECT_DOUBLE_EQ(a.percentile_ms(1.0), 40.0);
}

// --- workloads ------------------------------------------------------------------

// Poisson and hotspot arrivals come from the service tier's open-loop
// generator: no one-shot sources, a constant rate, and every destination
// uniform (hotspot_fraction 0) or in the hot set (hotspot_fraction 1).
ScenarioConfig open_loop_scenario(int vehicles, std::uint64_t seed,
                                  double rate, double hotspot_fraction) {
  ScenarioConfig cfg = paper_scenario(vehicles, seed);
  cfg.source_fraction = 0.0;
  cfg.service.open_loop_rate_per_sec = rate;
  cfg.service.hotspot_fraction = hotspot_fraction;
  return cfg;
}

TEST(WorkloadTest, PoissonIssuesArrivals) {
  World world(open_loop_scenario(100, 74, 2.0, 0.0), Protocol::kHlsrg);
  world.run();
  // ~2/s over a 30 s window: expect a few dozen arrivals, all issued (no
  // tier mechanism sheds or serves from a cache).
  const RunMetrics& m = world.metrics();
  EXPECT_GT(m.queries_offered, 25u);
  EXPECT_LT(m.queries_offered, 120u);
  EXPECT_EQ(m.queries_issued, m.queries_offered);
}

TEST(WorkloadTest, HotspotTargetsOnlyHotVehicles) {
  struct Case {
    int vehicles;
    int hot_set_size;
  };
  // In a 3-vehicle world a hot source often draws itself: with a hot set of
  // two the draw must step within the set, and with a hot set of one (its
  // sole member cannot query itself) it steps to vehicle 1.
  for (const Case& c : {Case{100, 3}, Case{3, 2}, Case{3, 1}}) {
    ScenarioConfig cfg = open_loop_scenario(c.vehicles, 75, 1.5, 1.0);
    cfg.hotspot_targets = c.hot_set_size;
    World world(cfg, Protocol::kHlsrg);
    TraceLog trace;
    world.attach_trace(&trace);
    world.run();
    int stepped_out = 0;
    for (const Span& s : trace.spans()) {
      if (s.kind != SpanKind::kQuery) continue;
      EXPECT_NE(s.subject, s.other);
      if (c.hot_set_size == 1 && s.subject == 0) {
        ++stepped_out;
        continue;
      }
      EXPECT_LT(s.other, static_cast<std::uint32_t>(c.hot_set_size))
          << c.vehicles;
    }
    if (c.hot_set_size == 1) {
      EXPECT_GT(stepped_out, 0);
    }
  }
}

TEST(WorkloadTest, WorkloadsAreDeterministicPerSeed) {
  const ScenarioConfig cfg = open_loop_scenario(100, 76, 1.0, 0.0);
  World a(cfg, Protocol::kHlsrg);
  World b(cfg, Protocol::kHlsrg);
  const SimTime window_end = cfg.warmup + cfg.query_window;
  a.run_until(window_end);
  b.run_until(window_end);
  EXPECT_GT(a.open_loop()->generated(), 0u);
  EXPECT_EQ(a.open_loop()->generated(), b.open_loop()->generated());
}

}  // namespace
}  // namespace hlsrg
