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

TEST(WorkloadTest, PoissonIssuesArrivals) {
  ScenarioConfig cfg = paper_scenario(100, 74);
  cfg.workload = ScenarioConfig::WorkloadKind::kPoisson;
  cfg.poisson_rate_per_sec = 2.0;
  World world(cfg, Protocol::kHlsrg);
  // ~2/s over a 30 s window: expect a few dozen arrivals.
  EXPECT_GT(world.planned_queries(), 25);
  EXPECT_LT(world.planned_queries(), 120);
  world.run();
  EXPECT_EQ(world.metrics().queries_issued,
            static_cast<std::uint64_t>(world.planned_queries()));
}

TEST(WorkloadTest, HotspotTargetsOnlyHotVehicles) {
  ScenarioConfig cfg = paper_scenario(100, 75);
  cfg.workload = ScenarioConfig::WorkloadKind::kHotspot;
  cfg.hotspot_targets = 3;
  cfg.poisson_rate_per_sec = 1.5;
  World world(cfg, Protocol::kHlsrg);
  TraceLog trace;
  world.attach_trace(&trace);
  world.run();
  for (const Span& s : trace.spans()) {
    if (s.kind != SpanKind::kQuery) continue;
    EXPECT_LT(s.other, 3u);
  }
}

TEST(WorkloadTest, WorkloadsAreDeterministicPerSeed) {
  ScenarioConfig cfg = paper_scenario(100, 76);
  cfg.workload = ScenarioConfig::WorkloadKind::kPoisson;
  World a(cfg, Protocol::kHlsrg);
  World b(cfg, Protocol::kHlsrg);
  EXPECT_EQ(a.planned_queries(), b.planned_queries());
}

}  // namespace
}  // namespace hlsrg
