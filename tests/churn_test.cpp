// Infrastructure-churn tests: the RSU reboot rebuild-from-beacons path, the
// parked-cars-as-RSUs role lifecycle (election, table handoff, degradation),
// the record conservation ledger, and the zero-churn inertness guarantee.
#include <gtest/gtest.h>

#include <utility>

#include "core/churn_manager.h"
#include "core/hlsrg_service.h"
#include "core/rsu_agent.h"
#include "fault/fault_plan.h"
#include "harness/digest.h"
#include "harness/scenario.h"
#include "harness/world.h"
#include "infra/role_directory.h"
#include "mobility/mobility_model.h"
#include "sim/simulator.h"

namespace hlsrg {
namespace {

HlsrgService& hlsrg_of(World& world) {
  return static_cast<HlsrgService&>(world.service());
}

// --- RSU reboot: rebuild from beacons ---------------------------------------

// The fallback every handoff failure leans on: a rebooted RSU agent comes
// back empty and refills its tables from the update/aggregation traffic
// alone. Previously only exercised indirectly through the chaos benches.
TEST(RsuRebootTest, RebootWipesTablesAndRebuildsFromBeacons) {
  ScenarioConfig cfg = paper_scenario(150, 77);
  cfg.map.size_m = 1000.0;
  cfg.query_window = SimTime::from_sec(10.0);
  cfg.grace = SimTime::from_sec(30.0);
  World world(cfg, Protocol::kHlsrg);
  world.run_until(SimTime::from_sec(70.0));

  HlsrgService& svc = hlsrg_of(world);
  HlsrgRsuAgent* rsu = nullptr;
  for (std::size_t i = 0; i < svc.rsu_agents().size(); ++i) {
    HlsrgRsuAgent& agent = svc.rsu_agent(RsuId{i});
    if (agent.level() == GridLevel::kL2 && agent.full_table().size() > 0) {
      rsu = &agent;
      break;
    }
  }
  ASSERT_NE(rsu, nullptr) << "no populated L2 RSU after warmup";

  rsu->set_up(false);
  rsu->set_up(true);
  EXPECT_EQ(rsu->l3_table().size(), 0u);
  EXPECT_EQ(rsu->full_table().size(), 0u);

  // The periodic update traffic alone restocks the reborn agent.
  world.run_until(SimTime::from_sec(95.0));
  EXPECT_GT(rsu->full_table().size(), 0u);
  EXPECT_TRUE(world.audit_now().ok()) << world.audit_now().to_string();
}

// --- parked-cars-as-RSUs ----------------------------------------------------

ScenarioConfig churn_scenario(std::uint64_t seed) {
  ScenarioConfig cfg = paper_scenario(250, seed);
  cfg.map.size_m = 2000.0;
  cfg.query_window = SimTime::from_sec(20.0);
  cfg.grace = SimTime::from_sec(30.0);
  cfg.mobility.parked_fraction = 0.35;
  cfg.mobility.churn.enabled = true;
  cfg.mobility.churn.park_rate_per_sec = 0.005;
  cfg.mobility.churn.dwell_mean_sec = 40.0;
  cfg.mobility.churn.min_dwell_sec = 10.0;
  cfg.hlsrg.parked_rsu_hosting = true;
  cfg.hlsrg.host_radius_m = 600.0;
  return cfg;
}

TEST(ChurnWorldTest, NaturalChurnConservesRecordsAndAuditsClean) {
  World world(churn_scenario(5100), Protocol::kHlsrg);
  const RunMetrics m = world.run();
  EXPECT_EQ(m.churn_active, 1u);
  EXPECT_GT(m.role_departures, 0u) << "scenario produced no host churn";
  // The conservation law the ChurnAuditor enforces, checked directly: every
  // record held at a departure was delivered, expired, or is in flight.
  EXPECT_EQ(m.records_at_departure, m.handoff_records_delivered +
                                        m.handoff_records_expired +
                                        m.handoff_records_in_flight);
  // World::run() expires leftovers at the horizon, so in flight is zero.
  EXPECT_EQ(m.handoff_records_in_flight, 0u);
  EXPECT_EQ(m.role_departures, m.role_elections + m.role_vacancies);
  EXPECT_TRUE(world.audit_now().ok()) << world.audit_now().to_string();
}

TEST(ChurnWorldTest, HandoffShipsRecordsAndControlExpiresThem) {
  ScenarioConfig cfg = churn_scenario(5100);
  World with(cfg, Protocol::kHlsrg);
  const RunMetrics m = with.run();
  EXPECT_GT(m.handoffs_sent, 0u);
  EXPECT_GT(m.handoff_records_delivered, 0u);

  cfg.hlsrg.enable_handoff = false;
  World without(cfg, Protocol::kHlsrg);
  const RunMetrics c = without.run();
  EXPECT_EQ(c.handoffs_sent, 0u);
  EXPECT_EQ(c.handoff_records_sent, 0u);
  // Every snapshotted record is ledger-accounted as expired: the successor
  // rebuilds from beacons, nothing vanishes silently.
  EXPECT_EQ(c.handoff_records_expired, c.records_at_departure);
  EXPECT_TRUE(without.audit_now().ok()) << without.audit_now().to_string();
}

TEST(ChurnWorldTest, BurstDepartureChaosAuditsCleanAndHandoffHelps) {
  ScenarioConfig cfg = churn_scenario(5200);
  FaultWindow burst;
  burst.kind = FaultKind::kChurn;
  burst.begin = SimTime::from_sec(65.0);
  burst.end = SimTime::from_sec(75.0);
  burst.depart_fraction = 0.6;
  cfg.fault_plan.windows.push_back(burst);

  World with(cfg, Protocol::kHlsrg);
  const RunMetrics m = with.run();
  EXPECT_GT(m.role_vacancies + m.role_elections, 0u);
  EXPECT_TRUE(with.audit_now().ok()) << with.audit_now().to_string();

  ScenarioConfig control_cfg = cfg;
  control_cfg.hlsrg.enable_handoff = false;
  World control(control_cfg, Protocol::kHlsrg);
  const RunMetrics c = control.run();
  EXPECT_TRUE(control.audit_now().ok()) << control.audit_now().to_string();
  // The burst forces abrupt departures on both sides; the handoff variant
  // must not lose to rebuilding everything from beacons (the strict ">"
  // acceptance gate runs at bench scale in bench/churn_frontier.cpp).
  EXPECT_GE(m.queries_succeeded, c.queries_succeeded);
}

TEST(ChurnWorldTest, RoleDirectoryBindingsMatchTheWorld) {
  World world(churn_scenario(5300), Protocol::kHlsrg);
  world.run_until(SimTime::from_sec(80.0));
  HlsrgService& svc = hlsrg_of(world);
  ASSERT_NE(svc.churn(), nullptr);
  const RoleDirectory& directory = svc.churn()->directory();
  ASSERT_GT(directory.role_count(), 0u);
  std::size_t staffed = 0;
  for (std::size_t i = 0; i < directory.role_count(); ++i) {
    const RoleBinding& b = directory.binding(RsuId{i});
    if (b.kind == RoleHostKind::kNone) {
      EXPECT_FALSE(svc.rsu_agent(RsuId{i}).up());
      continue;
    }
    ++staffed;
    ASSERT_EQ(b.kind, RoleHostKind::kParkedVehicle);
    ASSERT_TRUE(b.host.valid());
    EXPECT_TRUE(world.mobility().parked(b.host));
  }
  EXPECT_GT(staffed, 0u) << "no role ever found a parked host";
}

TEST(ChurnWorldTest, HandoffPayloadOrderIsSemanticallyInert) {
  // snapshot_role() ships tables in dense arena order (no sort) — see
  // churn_manager.cpp. The receiver re-keys every record through
  // newest-wins merges, so any permutation of the payload must rebuild the
  // same table: contents and canonical snapshot identical.
  std::vector<L1Record> records;
  for (std::uint32_t i = 0; i < 200; ++i) {
    L1Record rec;
    rec.vehicle = VehicleId{i};
    rec.time = SimTime::from_sec(1.0 + static_cast<double>(i % 17));
    rec.pos = Vec2{static_cast<double>(i), static_cast<double>(i % 7)};
    records.push_back(rec);
  }
  std::vector<L1Record> reversed(records.rbegin(), records.rend());
  // Interleave a stale duplicate per vehicle into one payload only: the
  // newest-wins merge must drop it regardless of where it sits.
  std::vector<L1Record> with_stale;
  for (const L1Record& rec : reversed) {
    L1Record stale = rec;
    stale.time = rec.time - SimTime::from_sec(0.5);
    stale.pos = Vec2{-1.0, -1.0};
    with_stale.push_back(stale);
    with_stale.push_back(rec);
  }

  L1Table sorted_merge;
  sorted_merge.merge(records);
  L1Table permuted_merge;
  permuted_merge.merge(with_stale);

  ASSERT_EQ(sorted_merge.size(), permuted_merge.size());
  const std::vector<L1Record> a = sorted_merge.snapshot();
  const std::vector<L1Record> b = permuted_merge.snapshot();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vehicle, b[i].vehicle);
    EXPECT_EQ(a[i].time.us(), b[i].time.us());
    EXPECT_EQ(a[i].pos.x, b[i].pos.x);
    EXPECT_EQ(a[i].pos.y, b[i].pos.y);
  }
}

TEST(ChurnWorldTest, ZeroChurnKnobsAreByteInert) {
  // Touching every churn knob while leaving the two enable switches off must
  // not move a single bit of the end state.
  ScenarioConfig plain = paper_scenario(150, 91);
  plain.map.size_m = 1000.0;
  plain.query_window = SimTime::from_sec(10.0);
  plain.grace = SimTime::from_sec(20.0);
  ScenarioConfig knobs = plain;
  knobs.hlsrg.host_radius_m = 50.0;
  knobs.hlsrg.enable_handoff = false;
  knobs.hlsrg.role_fill_delay = SimTime::from_sec(9.0);
  knobs.hlsrg.churn_detect_delay = SimTime::from_sec(1.0);
  knobs.mobility.churn.park_rate_per_sec = 0.9;
  knobs.mobility.churn.dwell_mean_sec = 2.0;
  knobs.mobility.churn.min_dwell_sec = 0.5;

  World a(plain, Protocol::kHlsrg);
  World b(knobs, Protocol::kHlsrg);
  const RunMetrics ma = a.run();
  const RunMetrics mb = b.run();
  EXPECT_EQ(ma.churn_active, 0u);
  EXPECT_EQ(mb.churn_active, 0u);
  EXPECT_EQ(state_digest(a), state_digest(b));
}

}  // namespace
}  // namespace hlsrg
