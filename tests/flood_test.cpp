// Tests for the flooding-based baseline and the taxonomy claims built on it.
#include <gtest/gtest.h>

#include "flood/flood_agent.h"
#include "flood/flood_service.h"
#include "harness/world.h"

namespace hlsrg {
namespace {

TEST(FloodServiceTest, QueriesSucceedViaCaches) {
  ScenarioConfig cfg = paper_scenario(250, 51);
  World world(cfg, Protocol::kFlood);
  const RunMetrics& m = world.run();
  EXPECT_EQ(m.queries_succeeded + m.queries_failed, m.queries_issued);
  // Everyone-knows-everyone dissemination answers nearly every query.
  EXPECT_GT(m.success_rate(), 0.85);
}

TEST(FloodServiceTest, CachesFillDuringWarmup) {
  ScenarioConfig cfg = paper_scenario(200, 52);
  World world(cfg, Protocol::kFlood);
  world.run_until(SimTime::from_sec(90));
  auto& svc = dynamic_cast<FloodService&>(world.service());
  std::size_t total = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    total += svc.vehicle_agent(VehicleId{i}).cache().size();
  }
  // Average cache knows a large share of the fleet.
  EXPECT_GT(total / 200, 200u / 4);
}

TEST(FloodServiceTest, UpdateAirtimeDwarfsHlsrg) {
  // The paper's taxonomy argument: flooding burns orders of magnitude more
  // airtime than the rendezvous design for the same coverage.
  ScenarioConfig cfg = paper_scenario(250, 53);
  World flood(cfg, Protocol::kFlood);
  World hlsrg(cfg, Protocol::kHlsrg);
  const auto flood_tx = flood.run().update_transmissions;
  const auto hlsrg_tx = hlsrg.run().update_transmissions +
                        hlsrg.metrics().aggregation_transmissions;
  EXPECT_GT(flood_tx, 20 * hlsrg_tx);
}

TEST(FloodServiceTest, DistanceTriggerScalesUpdateCount) {
  ScenarioConfig fine = paper_scenario(150, 54);
  fine.flood.update_distance_m = 200.0;
  ScenarioConfig coarse = paper_scenario(150, 54);
  coarse.flood.update_distance_m = 800.0;
  World a(fine, Protocol::kFlood);
  World b(coarse, Protocol::kFlood);
  EXPECT_GT(a.run().update_packets_originated,
            2 * b.run().update_packets_originated);
}

TEST(FloodServiceTest, DeterministicPerSeed) {
  ScenarioConfig cfg = paper_scenario(150, 55);
  World a(cfg, Protocol::kFlood);
  World b(cfg, Protocol::kFlood);
  a.run();
  b.run();
  EXPECT_EQ(a.metrics().update_transmissions, b.metrics().update_transmissions);
  EXPECT_EQ(a.metrics().queries_succeeded, b.metrics().queries_succeeded);
}

}  // namespace
}  // namespace hlsrg
