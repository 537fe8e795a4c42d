// Audit subsystem tests: each auditor passes on a clean world and fires on a
// seeded corruption that only it can see; the determinism digest is stable
// across reruns and thread counts and catches injected seed reuse.
#include <gtest/gtest.h>

#include <utility>

#include "audit/audit_runner.h"
#include "audit/churn_audit.h"
#include "audit/conservation_audit.h"
#include "audit/grid_audit.h"
#include "audit/table_audit.h"
#include "core/churn_manager.h"
#include "core/hlsrg_service.h"
#include "core/rsu_agent.h"
#include "core/vehicle_agent.h"
#include "mobility/mobility_model.h"
#include "grid/hierarchy.h"
#include "grid/partition.h"
#include "harness/digest.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/world.h"
#include "net/packet.h"
#include "rlsmp/rlsmp_agent.h"
#include "roadnet/map_builder.h"
#include "sim/simulator.h"

namespace hlsrg {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed = 42) {
  ScenarioConfig cfg = paper_scenario(120, seed);
  cfg.map.size_m = 1000.0;
  cfg.query_window = SimTime::from_sec(10.0);
  cfg.grace = SimTime::from_sec(20.0);
  return cfg;
}

// Runs a small HLSRG world past warmup so tables and counters are populated.
class AuditWorldTest : public ::testing::Test {
 protected:
  AuditWorldTest() : world_(small_scenario(), Protocol::kHlsrg) {
    world_.run_until(SimTime::from_sec(75.0));
  }

  HlsrgService& service() {
    return static_cast<HlsrgService&>(world_.service());
  }
  HlsrgRsuAgent& rsu_at_level(GridLevel level) {
    HlsrgService& svc = service();
    for (std::size_t i = 0; i < svc.rsu_agents().size(); ++i) {
      if (svc.rsu_agents()[i].level() == level) return svc.rsu_agent(RsuId{i});
    }
    ADD_FAILURE() << "no RSU at level " << static_cast<int>(level);
    return svc.rsu_agent(RsuId{std::size_t{0}});
  }
  // A vehicle id with no entry in the given RSU's summary tables.
  VehicleId absent_vehicle(const HlsrgRsuAgent& rsu) {
    for (std::size_t i = 0; i < world_.mobility().vehicle_count(); ++i) {
      const VehicleId v{i};
      if (rsu.l2_table().find(v) == nullptr &&
          rsu.l3_table().find(v) == nullptr) {
        return v;
      }
    }
    ADD_FAILURE() << "every vehicle is summarized";
    return VehicleId{};
  }
  // Violations from one specific auditor against the current world state.
  AuditReport run_auditor(const Auditor& auditor) {
    AuditReport report;
    auditor.check(world_.audit_scope(), &report);
    return report;
  }

  World world_;
};

// --- clean world -----------------------------------------------------------

TEST_F(AuditWorldTest, CleanWorldPassesAllAuditors) {
  const AuditReport report = world_.audit_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AuditWorldTest, RlsmpWorldAuditsCleanWithoutHlsrgState) {
  World rlsmp(small_scenario(), Protocol::kRlsmp);
  rlsmp.run_until(SimTime::from_sec(75.0));
  const AuditReport report = rlsmp.audit_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- grid auditor ----------------------------------------------------------

TEST(GridAuditTest, CleanHierarchyPasses) {
  MapConfig map;
  map.size_m = 1000.0;
  const RoadNetwork net = build_manhattan_map(map);
  const GridHierarchy hierarchy(net, build_partition(net));

  AuditScope scope;
  scope.net = &net;
  scope.hierarchy = &hierarchy;
  AuditReport report;
  GridAuditor{}.check(scope, &report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(GridAuditTest, DetectsUnorderedBoundaryLines) {
  MapConfig map;
  map.size_m = 1000.0;
  const RoadNetwork net = build_manhattan_map(map);
  Partition partition = build_partition(net);
  ASSERT_GE(partition.x_lines.size(), 3u);
  std::swap(partition.x_lines[0].coord, partition.x_lines[1].coord);
  const GridHierarchy hierarchy(net, partition);

  AuditScope scope;
  scope.net = &net;
  scope.hierarchy = &hierarchy;
  AuditReport report;
  GridAuditor{}.check(scope, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().auditor, "grid");
  EXPECT_NE(report.to_string().find("strictly increasing"), std::string::npos)
      << report.to_string();
}

TEST(GridAuditTest, DetectsCoverageGap) {
  MapConfig map;
  map.size_m = 1000.0;
  const RoadNetwork net = build_manhattan_map(map);
  Partition partition = build_partition(net);
  // Pull the east edge inward: cells no longer cover the map.
  partition.x_lines.back().coord -= 50.0;
  const GridHierarchy hierarchy(net, partition);

  AuditScope scope;
  scope.net = &net;
  scope.hierarchy = &hierarchy;
  AuditReport report;
  GridAuditor{}.check(scope, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("does not cover"), std::string::npos)
      << report.to_string();
}

// --- table auditor ---------------------------------------------------------

TEST_F(AuditWorldTest, DetectsFutureTimestamp) {
  HlsrgRsuAgent& rsu = rsu_at_level(GridLevel::kL2);
  rsu.mutable_l2_table().record(
      L2Summary{VehicleId{0u}, world_.sim().now() + SimTime::from_sec(100.0),
                GridCoord{0, 0}});

  const AuditReport report = run_auditor(TableAuditor{});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().auditor, "table");
  EXPECT_NE(report.to_string().find("future"), std::string::npos)
      << report.to_string();
  // The corruption is invisible to the other auditors.
  EXPECT_TRUE(run_auditor(GridAuditor{}).ok());
  EXPECT_TRUE(run_auditor(ConservationAuditor{}).ok());
}

TEST_F(AuditWorldTest, DetectsOutOfRangeGridCoord) {
  HlsrgRsuAgent& rsu = rsu_at_level(GridLevel::kL2);
  rsu.mutable_l2_table().record(
      L2Summary{absent_vehicle(rsu), world_.sim().now(), GridCoord{1000, 1000}});

  const AuditReport report = run_auditor(TableAuditor{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("out-of-range"), std::string::npos)
      << report.to_string();
}

TEST_F(AuditWorldTest, DetectsNonexistentVehicleKey) {
  HlsrgRsuAgent& rsu = rsu_at_level(GridLevel::kL3);
  rsu.mutable_l3_table().record(
      L3Summary{VehicleId{999999u}, world_.sim().now(), GridCoord{0, 0},
                GridCoord{0, 0}});

  const AuditReport report = run_auditor(TableAuditor{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("does not exist"), std::string::npos)
      << report.to_string();
}

TEST_F(AuditWorldTest, DetectsOrphanFreshFullRecord) {
  HlsrgRsuAgent& rsu = rsu_at_level(GridLevel::kL2);
  const VehicleId v = absent_vehicle(rsu);
  L1Record rec;
  rec.vehicle = v;
  rec.pos = world_.mobility().position(v);
  rec.dir = Vec2{1.0, 0.0};
  rec.time = world_.sim().now();
  rec.l1 = world_.hierarchy().l1_at(rec.pos);
  rsu.mutable_full_table().record(rec);

  const AuditReport report = run_auditor(TableAuditor{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("no summary-table entry"),
            std::string::npos)
      << report.to_string();
}

TEST_F(AuditWorldTest, DetectsNegativeAndStaleTimestamp) {
  HlsrgRsuAgent& rsu = rsu_at_level(GridLevel::kL2);
  // A timestamp far in the past violates both the sign check and the bounded
  // staleness law (l2 bound: expiry + two push periods = 152 s; age here is
  // 75 s - (-100 s) = 175 s). The key must be absent: record() is
  // newest-wins and would silently drop an old entry for a live vehicle.
  rsu.mutable_l2_table().record(L2Summary{
      absent_vehicle(rsu), SimTime::from_sec(-100.0), GridCoord{0, 0}});

  const AuditReport report = run_auditor(TableAuditor{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("negative timestamp"), std::string::npos)
      << report.to_string();
  EXPECT_NE(report.to_string().find("is stale"), std::string::npos)
      << report.to_string();
}

TEST_F(AuditWorldTest, DetectsTableWithoutCenterDuty) {
  for (std::size_t i = 0; i < world_.mobility().vehicle_count(); ++i) {
    HlsrgVehicleAgent& agent = service().vehicle_agent(VehicleId{i});
    if (agent.in_center()) continue;
    L1Record rec;
    rec.vehicle = VehicleId{i};
    rec.pos = world_.mobility().position(VehicleId{i});
    rec.time = world_.sim().now();
    rec.l1 = world_.hierarchy().l1_at(rec.pos);
    agent.mutable_table().record(rec);

    const AuditReport report = run_auditor(TableAuditor{});
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("without center duty"),
              std::string::npos)
        << report.to_string();
    return;
  }
  FAIL() << "every vehicle is on center duty";
}

// --- conservation auditor --------------------------------------------------

TEST_F(AuditWorldTest, DetectsChannelLedgerCorruption) {
  // An offer that never settles — as if a delivery increment were dropped.
  world_.sim().metrics().channel.add_offered(
      static_cast<int>(PacketKind::kLocationUpdate));

  const AuditReport report = run_auditor(ConservationAuditor{});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().auditor, "conservation");
  EXPECT_NE(report.to_string().find("ledger unbalanced"), std::string::npos)
      << report.to_string();
  EXPECT_TRUE(run_auditor(TableAuditor{}).ok());
}

TEST_F(AuditWorldTest, DetectsQueryAccountingCorruption) {
  world_.sim().metrics().queries_succeeded += 1;

  const AuditReport report = run_auditor(ConservationAuditor{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("quer"), std::string::npos)
      << report.to_string();
}

TEST_F(AuditWorldTest, DetectsGpsrFailureWithoutCause) {
  // A failed route counted with no cause, as if a fail path skipped its
  // cause counter.
  world_.sim().metrics().gpsr_failures += 1;

  const AuditReport report = run_auditor(ConservationAuditor{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("GPSR failure causes"), std::string::npos)
      << report.to_string();
}

TEST(ConservationAuditTest, EventQueueLawHoldsThroughCancel) {
  Simulator sim(7);
  const EventHandle a = sim.schedule_after(SimTime::from_sec(1.0), [] {});
  sim.schedule_after(SimTime::from_sec(2.0), [] {});
  sim.schedule_after(SimTime::from_sec(3.0), [] {});
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_FALSE(sim.cancel(a));  // double-cancel must not double-count
  sim.run_until(SimTime::from_sec(2.5));

  EXPECT_EQ(sim.queue().events_scheduled(), 3u);
  EXPECT_EQ(sim.queue().events_dispatched(), 1u);
  EXPECT_EQ(sim.queue().events_cancelled(), 1u);
  EXPECT_EQ(sim.queue().size(), 1u);

  AuditScope scope;
  scope.sim = &sim;
  AuditReport report;
  ConservationAuditor{}.check(scope, &report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- churn auditor ---------------------------------------------------------

ScenarioConfig churn_scenario(std::uint64_t seed = 47) {
  ScenarioConfig cfg = small_scenario(seed);
  cfg.vehicles = 200;
  cfg.map.size_m = 2000.0;
  cfg.mobility.parked_fraction = 0.35;
  cfg.mobility.churn.enabled = true;
  cfg.mobility.churn.park_rate_per_sec = 0.005;
  cfg.mobility.churn.dwell_mean_sec = 40.0;
  cfg.mobility.churn.min_dwell_sec = 10.0;
  cfg.hlsrg.parked_rsu_hosting = true;
  cfg.hlsrg.host_radius_m = 600.0;
  return cfg;
}

// Parked-RSU-hosting world: roles churn, handoffs fly, the ledger closes.
class ChurnAuditWorldTest : public ::testing::Test {
 protected:
  ChurnAuditWorldTest() : world_(churn_scenario(), Protocol::kHlsrg) {
    world_.run_until(SimTime::from_sec(75.0));
  }

  HlsrgService& service() {
    return static_cast<HlsrgService&>(world_.service());
  }
  AuditReport run_churn_auditor() {
    AuditReport report;
    ChurnAuditor{}.check(world_.audit_scope(), &report);
    return report;
  }

  World world_;
};

TEST_F(ChurnAuditWorldTest, CleanChurnWorldPasses) {
  ASSERT_NE(service().churn(), nullptr);
  const AuditReport report = world_.audit_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(ChurnAuditWorldTest, DetectsRecordLeak) {
  // A handoff record that vanishes without being delivered, expired, or
  // left in flight — exactly the silent loss the ledger forbids.
  world_.sim().metrics().records_at_departure += 3;

  const AuditReport report = run_churn_auditor();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().auditor, "churn");
  EXPECT_NE(report.to_string().find("leak"), std::string::npos)
      << report.to_string();
  // Invisible to the other auditors.
  EXPECT_TRUE(world_.audit_now().violations().size() ==
              report.violations().size());
}

TEST_F(ChurnAuditWorldTest, DetectsUnbalancedRoleAccounting) {
  world_.sim().metrics().role_elections += 1;

  const AuditReport report = run_churn_auditor();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("role accounting"), std::string::npos)
      << report.to_string();
}

TEST_F(ChurnAuditWorldTest, DetectsDoubleSettledHandoff) {
  world_.sim().metrics().handoffs_delivered += 1;
  world_.sim().metrics().handoff_records_delivered += 1;
  world_.sim().metrics().records_at_departure += 1;

  const AuditReport report = run_churn_auditor();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("settle twice"), std::string::npos)
      << report.to_string();
}

TEST_F(ChurnAuditWorldTest, DetectsVacantRoleWithLiveAgent) {
  ChurnManager& churn = *service().churn();
  RsuId staffed;
  for (std::size_t i = 0; i < churn.directory().role_count(); ++i) {
    if (churn.directory().staffed(RsuId{i}) &&
        service().rsu_agent(RsuId{i}).up()) {
      staffed = RsuId{i};
      break;
    }
  }
  ASSERT_TRUE(staffed.valid()) << "no staffed role to corrupt";
  // Drop the binding behind the agent's back: the role claims nobody hosts
  // it, yet the agent keeps serving.
  churn.mutable_directory().vacate(staffed);

  const AuditReport report = run_churn_auditor();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("live agent"), std::string::npos)
      << report.to_string();
}

TEST_F(ChurnAuditWorldTest, DetectsDrivingHost) {
  ChurnManager& churn = *service().churn();
  VehicleId driving;
  for (std::size_t i = 0; i < world_.mobility().vehicle_count(); ++i) {
    if (!world_.mobility().parked(VehicleId{i}) &&
        !churn.directory().role_of(VehicleId{i}).valid()) {
      driving = VehicleId{i};
      break;
    }
  }
  RsuId staffed;
  for (std::size_t i = 0; i < churn.directory().role_count(); ++i) {
    if (churn.directory().staffed(RsuId{i})) {
      staffed = RsuId{i};
      break;
    }
  }
  ASSERT_TRUE(driving.valid());
  ASSERT_TRUE(staffed.valid());
  churn.mutable_directory().bind_vehicle(staffed, driving);

  const AuditReport report = run_churn_auditor();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("driving, not parked"), std::string::npos)
      << report.to_string();
}

// --- determinism digests ---------------------------------------------------

TEST(DigestTest, SameSeedSameDigest) {
  World a(small_scenario(9), Protocol::kHlsrg);
  World b(small_scenario(9), Protocol::kHlsrg);
  a.run();
  b.run();
  EXPECT_EQ(state_digest(a), state_digest(b));
}

TEST(DigestTest, DifferentSeedDiffers) {
  World a(small_scenario(9), Protocol::kHlsrg);
  World b(small_scenario(10), Protocol::kHlsrg);
  a.run();
  b.run();
  EXPECT_NE(state_digest(a), state_digest(b));
}

TEST(DigestTest, ReplicaDigestsAreThreadCountInvariant) {
  const ScenarioConfig cfg = small_scenario(21);
  const ReplicaSet one = run_replicas(cfg, Protocol::kHlsrg, 3, 1);
  const ReplicaSet four = run_replicas(cfg, Protocol::kHlsrg, 3, 4);
  ASSERT_EQ(one.digests.size(), 3u);
  EXPECT_EQ(first_digest_mismatch(one.digests, four.digests),
            static_cast<std::size_t>(-1));
}

TEST(DigestTest, DetectsInjectedSeedReuse) {
  // A per-thread RNG reuse bug makes two replicas run the same seed; their
  // digests collide and diverge from the properly seeded baseline at the
  // first reused index.
  const ReplicaSet good =
      run_replicas(small_scenario(30), Protocol::kHlsrg, 2, 1);
  World reused(small_scenario(30), Protocol::kHlsrg);  // seed 30 again,
  reused.run();                                        // not 30 + 1
  const std::vector<std::uint64_t> buggy{good.digests[0],
                                         state_digest(reused)};
  EXPECT_EQ(buggy[0], buggy[1]);
  EXPECT_EQ(first_digest_mismatch(good.digests, buggy), 1u);
}

// Pins state_digest to recorded values: two runs of one build would agree
// even if the metric mix were reordered or regrouped. The first HLSRG world
// runs a fault plan and churn, so both gated blocks mix; the RLSMP, FLOOD and
// beacons-on HLSRG worlds cover the other protocols' tables and the HELLO
// neighbor tables, whose deliveries reach callbacks rather than sinks. The
// values were recorded with glibc's libm; positions are hashed bit-exact,
// so another libm may shift them.
TEST(DigestTest, PinnedDigestsForFaultChurnAndRlsmpWorlds) {
  ScenarioConfig cfg = churn_scenario(47);
  FaultWindow crash;
  crash.kind = FaultKind::kRsuCrash;
  crash.begin = SimTime::from_sec(60.0);
  crash.end = SimTime::from_sec(75.0);
  crash.level = 3;
  crash.col = -1;
  cfg.fault_plan.windows.push_back(crash);
  World hlsrg(cfg, Protocol::kHlsrg);
  const RunMetrics& m = hlsrg.run();
  ASSERT_NE(m.fault_plan_digest, 0u);
  ASSERT_EQ(m.churn_active, 1u);
  EXPECT_GT(m.rsu_suppressed + m.query_retries, 0u);
  EXPECT_GT(m.role_departures, 0u);
  EXPECT_EQ(state_digest(hlsrg), 0x29a13beb5782b975ULL);

  World rlsmp(small_scenario(9), Protocol::kRlsmp);
  rlsmp.run();
  EXPECT_EQ(state_digest(rlsmp), 0xb3654edb82235864ULL);

  World flood(small_scenario(11), Protocol::kFlood);
  flood.run();
  EXPECT_EQ(state_digest(flood), 0xc01db5147a231b4fULL);

  ScenarioConfig beacon_cfg = small_scenario(13);
  beacon_cfg.beacons.enabled = true;
  World beacons(beacon_cfg, Protocol::kHlsrg);
  beacons.run();
  EXPECT_EQ(state_digest(beacons), 0x7f090480ab54434fULL);
}

// The digest hashes RLSMP's tables: editing one stored record moves it.
TEST(DigestTest, RlsmpRecordChangesTheDigest) {
  World world(small_scenario(9), Protocol::kRlsmp);
  world.run();
  const std::uint64_t before = state_digest(world);
  auto& svc = static_cast<RlsmpService&>(world.service());
  for (std::size_t i = 0; i < world.mobility().vehicle_count(); ++i) {
    RlsmpVehicleAgent& agent = svc.vehicle_agent(VehicleId{i});
    if (agent.cell_table().empty()) continue;
    CellRecord rec = agent.cell_table().snapshot().front();
    rec.pos.x += 1.0;
    rec.time += SimTime::from_us(1);
    agent.mutable_cell_table().record(rec);
    EXPECT_NE(state_digest(world), before);
    return;
  }
  FAIL() << "no RLSMP cell leader holds a record at the end of the run";
}

TEST(DigestTest, MismatchReportsLengthDifference) {
  const std::vector<std::uint64_t> a{1, 2, 3};
  const std::vector<std::uint64_t> b{1, 2};
  EXPECT_EQ(first_digest_mismatch(a, b), 2u);
  EXPECT_EQ(first_digest_mismatch(a, a), static_cast<std::size_t>(-1));
}

}  // namespace
}  // namespace hlsrg
