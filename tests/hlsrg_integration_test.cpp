// Integration tests: the full HLSRG stack on complete worlds, plus paired
// protocol comparisons and ablation switches.
#include <gtest/gtest.h>

#include "core/hlsrg_service.h"
#include "core/rsu_agent.h"
#include "core/vehicle_agent.h"
#include "harness/world.h"

namespace hlsrg {
namespace {

TEST(HlsrgIntegrationTest, QueriesSucceedOnPaperScenario) {
  ScenarioConfig cfg = paper_scenario(500, 3);
  World world(cfg, Protocol::kHlsrg);
  const RunMetrics& m = world.run();
  EXPECT_EQ(m.queries_issued, 50u);
  EXPECT_EQ(m.queries_succeeded + m.queries_failed, m.queries_issued);
  EXPECT_GT(m.success_rate(), 0.7);
  EXPECT_GT(m.notifications_sent, 0u);
  EXPECT_GT(m.acks_sent, 0u);
}

TEST(HlsrgIntegrationTest, DeterministicPerSeed) {
  ScenarioConfig cfg = paper_scenario(300, 11);
  World a(cfg, Protocol::kHlsrg);
  World b(cfg, Protocol::kHlsrg);
  a.run();
  b.run();
  EXPECT_EQ(a.metrics().update_packets_originated,
            b.metrics().update_packets_originated);
  EXPECT_EQ(a.metrics().queries_succeeded, b.metrics().queries_succeeded);
  EXPECT_EQ(a.metrics().radio_broadcasts, b.metrics().radio_broadcasts);
  EXPECT_EQ(a.metrics().query_latency.mean_ms(),
            b.metrics().query_latency.mean_ms());
}

TEST(HlsrgIntegrationTest, SeedsChangeOutcomes) {
  ScenarioConfig a_cfg = paper_scenario(300, 1);
  ScenarioConfig b_cfg = paper_scenario(300, 2);
  World a(a_cfg, Protocol::kHlsrg);
  World b(b_cfg, Protocol::kHlsrg);
  a.run();
  b.run();
  EXPECT_NE(a.metrics().radio_broadcasts, b.metrics().radio_broadcasts);
}

TEST(HlsrgIntegrationTest, MobilityIsIdenticalAcrossProtocols) {
  // Paired comparison fairness: with the same seed, vehicle trajectories
  // must not depend on which protocol runs on top.
  ScenarioConfig cfg = paper_scenario(100, 17);
  World h(cfg, Protocol::kHlsrg);
  World r(cfg, Protocol::kRlsmp);
  h.run_until(SimTime::from_sec(120));
  r.run_until(SimTime::from_sec(120));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(h.mobility().position(VehicleId{i}),
              r.mobility().position(VehicleId{i}))
        << "vehicle " << i;
  }
}

TEST(HlsrgIntegrationTest, FewerUpdatesThanRlsmp) {
  // The headline claim (Fig 3.2 shape): road-adapted update suppression
  // produces substantially fewer location update packets than RLSMP.
  ScenarioConfig cfg = paper_scenario(500, 7);
  World h(cfg, Protocol::kHlsrg);
  World r(cfg, Protocol::kRlsmp);
  const auto hu = h.run().update_packets_originated;
  const auto ru = r.run().update_packets_originated;
  EXPECT_LT(hu, ru);
  EXPECT_LT(static_cast<double>(hu), 0.9 * static_cast<double>(ru));
}

TEST(HlsrgIntegrationTest, CentersCollectTables) {
  ScenarioConfig cfg = paper_scenario(500, 9);
  World world(cfg, Protocol::kHlsrg);
  world.run_until(SimTime::from_sec(90));
  auto& svc = dynamic_cast<HlsrgService&>(world.service());
  int in_center = 0;
  std::size_t entries = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    const auto& agent = svc.vehicle_agent(VehicleId{i});
    if (agent.in_center()) {
      ++in_center;
      entries += agent.table().size();
    }
  }
  EXPECT_GT(in_center, 5);
  EXPECT_GT(entries, 50u);
}

// Recomputes every vehicle's center membership from scratch at the end of
// each tick and compares it with the service's incrementally kept flag.
class CenterDutyChecker final : public MovementListener {
 public:
  CenterDutyChecker(World& world, const HlsrgService& svc)
      : world_(&world), svc_(&svc) {}
  void on_tick() override {
    ++ticks;
    check();
  }
  void check() {
    const GridHierarchy& h = world_->hierarchy();
    for (std::size_t i = 0; i < world_->mobility().vehicle_count(); ++i) {
      const VehicleId v{i};
      const Vec2 pos = svc_->vehicle_pos(v);
      const bool expected =
          distance(pos, h.center_pos(h.l1_at(pos), GridLevel::kL1)) <=
          svc_->cfg().center_radius_m;
      const bool kept = svc_->vehicle_agent(v).in_center();
      if (kept != expected) ++mismatches;
      if (kept) {
        ++on_duty;
        if (!(svc_->vehicle_agent(v).center_cell() == h.l1_at(pos))) {
          ++mismatches;
        }
      }
    }
  }
  World* world_;
  const HlsrgService* svc_;
  int ticks = 0;
  int mismatches = 0;
  std::size_t on_duty = 0;
};

TEST(HlsrgIntegrationTest, CenterDutyMatchesRecomputationEveryTick) {
  // The paper's 150 m radius, and a 600 m one whose discs overlap the
  // neighbouring cells, so vehicles also switch straight from one center
  // to the next.
  for (const double radius : {150.0, 600.0}) {
    ScenarioConfig cfg = paper_scenario(500, 13);
    cfg.mobility.parked_fraction = 0.1;
    cfg.hlsrg.center_radius_m = radius;
    World world(cfg, Protocol::kHlsrg);
    const auto& svc = dynamic_cast<const HlsrgService&>(world.service());
    CenterDutyChecker checker(world, svc);
    checker.check();  // the starting poses, before any tick
    world.mobility().add_listener(&checker);
    world.run_until(SimTime::from_sec(120));
    EXPECT_GT(checker.ticks, 200) << radius;
    EXPECT_GT(checker.on_duty, 1000u) << radius;
    EXPECT_EQ(checker.mismatches, 0) << radius;
  }
}

TEST(HlsrgIntegrationTest, RsuTablesThinUpward) {
  ScenarioConfig cfg = paper_scenario(500, 9);
  World world(cfg, Protocol::kHlsrg);
  world.run_until(SimTime::from_sec(120));
  auto& svc = dynamic_cast<HlsrgService&>(world.service());
  std::size_t l2_entries = 0, l3_entries = 0;
  for (const auto& rsu : svc.rsu_agents()) {
    if (rsu.level() == GridLevel::kL2) {
      l2_entries += rsu.l2_summaries().size();
    } else {
      l3_entries += rsu.l3_table().size();
    }
  }
  EXPECT_GT(l2_entries, 0u);
  EXPECT_GT(l3_entries, 0u);
}

TEST(HlsrgIntegrationTest, TablesExpireWithoutTraffic) {
  // After warmup, freeze updates by ending queries: entries older than the
  // expiry vanish from RSU tables on the next purge (exercised via queries).
  ScenarioConfig cfg = paper_scenario(200, 5);
  cfg.hlsrg.l2_expiry = SimTime::from_sec(15);
  cfg.hlsrg.l3_expiry = SimTime::from_sec(15);
  cfg.hlsrg.l1_expiry = SimTime::from_sec(15);
  World world(cfg, Protocol::kHlsrg);
  world.run();
  // With such aggressive expiry the protocol still settles every query.
  EXPECT_EQ(world.metrics().queries_succeeded +
                world.metrics().queries_failed,
            world.metrics().queries_issued);
}

// Exact work count: a request is handled only at the L1 center its source
// addressed, so each attempt that reaches a center costs one election there.
// When every center that heard the 500 m relay acted on it, a 2 km world at
// twice the paper's density made 11 level-1 lookups per query.
TEST(HlsrgIntegrationTest, AtMostTwoCenterLookupsPerQuery) {
  World world(paper_scenario(1000, 3), Protocol::kHlsrg);
  const RunMetrics& m = world.run();
  ASSERT_GT(m.queries_issued, 0u);
  EXPECT_LE(m.server_lookup_hits + m.server_lookup_misses,
            2 * m.queries_issued);
}

// --- ablations -----------------------------------------------------------------

TEST(HlsrgAblationTest, NoRsusStillRuns) {
  ScenarioConfig cfg = paper_scenario(300, 13);
  cfg.hlsrg.use_rsus = false;
  World world(cfg, Protocol::kHlsrg);
  const RunMetrics& m = world.run();
  EXPECT_EQ(m.queries_succeeded + m.queries_failed, m.queries_issued);
  EXPECT_EQ(m.wired_messages, 0u);
}

TEST(HlsrgAblationTest, RsusImproveSuccessRate) {
  ScenarioConfig with = paper_scenario(400, 19);
  ScenarioConfig without = paper_scenario(400, 19);
  without.hlsrg.use_rsus = false;
  World a(with, Protocol::kHlsrg);
  World b(without, Protocol::kHlsrg);
  const double sr_with = a.run().success_rate();
  const double sr_without = b.run().success_rate();
  EXPECT_GT(sr_with, sr_without);
}

TEST(HlsrgAblationTest, SuppressionReducesUpdates) {
  ScenarioConfig on = paper_scenario(400, 23);
  ScenarioConfig off = paper_scenario(400, 23);
  off.hlsrg.suppress_artery_updates = false;
  World a(on, Protocol::kHlsrg);
  World b(off, Protocol::kHlsrg);
  const auto u_on = a.run().update_packets_originated;
  const auto u_off = b.run().update_packets_originated;
  EXPECT_LT(u_on, u_off);
}

TEST(HlsrgAblationTest, NaiveModeSendsMostUpdates) {
  ScenarioConfig paper = paper_scenario(400, 29);
  ScenarioConfig naive = paper_scenario(400, 29);
  naive.hlsrg.naive_every_crossing = true;
  World a(paper, Protocol::kHlsrg);
  World b(naive, Protocol::kHlsrg);
  EXPECT_LT(a.run().update_packets_originated,
            b.run().update_packets_originated);
}

// Density sweep mirroring the paper's x-axis.
class HlsrgDensitySweep : public ::testing::TestWithParam<int> {};

TEST_P(HlsrgDensitySweep, ProtocolStaysFunctional) {
  ScenarioConfig cfg = paper_scenario(GetParam(), 31);
  World world(cfg, Protocol::kHlsrg);
  const RunMetrics& m = world.run();
  EXPECT_EQ(m.queries_succeeded + m.queries_failed, m.queries_issued);
  EXPECT_GT(m.success_rate(), 0.5) << GetParam() << " vehicles";
}

INSTANTIATE_TEST_SUITE_P(Densities, HlsrgDensitySweep,
                         ::testing::Values(300, 500, 700));

}  // namespace
}  // namespace hlsrg
