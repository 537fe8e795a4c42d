// Tests for harness: parallel utilities, the replica runner, and the
// scenario/world plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/world.h"
#include "roadnet/map_builder.h"
#include "roadnet/map_io.h"

namespace hlsrg {
namespace {

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadPath) {
  std::vector<int> order;
  parallel_for(10, 1, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  std::vector<int> want(10);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(ParallelForTest, ZeroJobsIsNoop) {
  parallel_for(0, 4, [&](std::size_t) { FAIL(); });
}

TEST(ParallelForTest, MoreThreadsThanJobs) {
  std::atomic<int> count{0};
  parallel_for(3, 64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelForTest, ActuallyRunsConcurrently) {
  // With 4 workers and 4 jobs that wait on a shared barrier, the jobs can
  // only finish if they run at the same time.
  std::atomic<int> arrived{0};
  parallel_for(4, 4, [&](std::size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < 4) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(arrived.load(), 4);
}

TEST(DefaultThreadCountTest, Bounds) {
  EXPECT_GE(default_thread_count(100), 1u);
  EXPECT_LE(default_thread_count(2), 2u);
  EXPECT_EQ(default_thread_count(1), 1u);
}

// --- scenario / world ----------------------------------------------------------

TEST(ScenarioTest, PaperScenarioDefaults) {
  const ScenarioConfig cfg = paper_scenario(500, 9);
  EXPECT_EQ(cfg.vehicles, 500);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_DOUBLE_EQ(cfg.map.size_m, 2000.0);
  EXPECT_DOUBLE_EQ(cfg.radio.range_m, 500.0);
  EXPECT_DOUBLE_EQ(cfg.mobility.lights.red_sec, 50.0);
  EXPECT_EQ(cfg.end_time(), cfg.warmup + cfg.query_window + cfg.grace);
}

TEST(WorldTest, WorkloadSizeMatchesSourceFraction) {
  ScenarioConfig cfg = paper_scenario(300, 2);
  World world(cfg, Protocol::kHlsrg);
  EXPECT_EQ(world.planned_queries(), 30);
  world.run();
  EXPECT_EQ(world.metrics().queries_issued, 30u);
}

TEST(WorldTest, QueriesNeverSelfTarget) {
  // Exercised indirectly: run a tiny scenario with 2 vehicles and 100%
  // sources; src != dst must hold (self-queries would be degenerate).
  ScenarioConfig cfg = paper_scenario(2, 4);
  cfg.source_fraction = 1.0;
  World world(cfg, Protocol::kHlsrg);
  EXPECT_EQ(world.planned_queries(), 2);
  world.run();  // must not trip any HLSRG_CHECK
}

TEST(WorldTest, RlsmpWorldHasCells) {
  ScenarioConfig cfg = paper_scenario(50, 6);
  World world(cfg, Protocol::kRlsmp);
  EXPECT_NE(world.cells(), nullptr);
  EXPECT_EQ(world.rsus(), nullptr);
}

TEST(WorldTest, HlsrgWorldHasRsus) {
  ScenarioConfig cfg = paper_scenario(50, 6);
  World world(cfg, Protocol::kHlsrg);
  EXPECT_NE(world.rsus(), nullptr);
  EXPECT_EQ(world.cells(), nullptr);
}

TEST(WorldTest, BeaconModeRunsEndToEnd) {
  ScenarioConfig cfg = paper_scenario(150, 7);
  cfg.beacons.enabled = true;
  World world(cfg, Protocol::kHlsrg);
  const RunMetrics& m = world.run();
  EXPECT_EQ(m.queries_succeeded + m.queries_failed, m.queries_issued);
  // Beacons add broadcast traffic well beyond the protocol's own.
  ScenarioConfig off = paper_scenario(150, 7);
  World quiet(off, Protocol::kHlsrg);
  quiet.run();
  EXPECT_GT(m.radio_broadcasts, 2 * quiet.metrics().radio_broadcasts);
}

// Added after the World is built, so it runs after the pose bridge and the
// protocol service. At every pass and move it checks that the registry
// holds the mobility model's pose for every vehicle and that no pose has
// been written since the tick's first callback: one committed snapshot.
class SnapshotProbe final : public MovementListener {
 public:
  explicit SnapshotProbe(World& world) : world_(&world) {}
  void on_intersection_pass(VehicleId, IntersectionId, SegmentId,
                            SegmentId) override {
    ++passes;
    check();
  }
  void on_moved(VehicleId, Vec2, Vec2) override {
    ++moves;
    check();
  }
  void on_tick() override { tick_writes_.reset(); }

  int passes = 0;
  int moves = 0;
  int pose_mismatches = 0;
  int writes_within_tick = 0;

 private:
  void check() {
    NodeRegistry& registry = world_->registry();
    if (!tick_writes_) tick_writes_ = registry.pose_writes();
    if (registry.pose_writes() != *tick_writes_) ++writes_within_tick;
    for (std::size_t i = 0; i < registry.vehicle_count(); ++i) {
      const VehicleId v{i};
      if (registry.vehicle_position(v) != world_->mobility().position(v)) {
        ++pose_mismatches;
      }
    }
  }

  World* world_;
  std::optional<std::uint64_t> tick_writes_;
};

TEST(WorldTest, MovementCallbacksSeeOneCommittedSnapshot) {
  ScenarioConfig cfg = paper_scenario(80, 3);
  World world(cfg, Protocol::kHlsrg);
  SnapshotProbe probe(world);
  world.mobility().add_listener(&probe);
  world.run_until(SimTime::from_sec(30));
  EXPECT_GT(probe.passes, 0);
  EXPECT_GT(probe.moves, 0);
  EXPECT_EQ(probe.pose_mismatches, 0);
  EXPECT_EQ(probe.writes_within_tick, 0);
}

TEST(WorldTest, LoadsMapFromFile) {
  // Save a generated map, then build a world from the file: geometry and
  // partition must match the generated original.
  const RoadNetwork generated = build_manhattan_map({.size_m = 1000});
  const std::string path = ::testing::TempDir() + "/hlsrg_world_map.map";
  std::string error;
  ASSERT_TRUE(save_map_file(generated, path, &error)) << error;

  ScenarioConfig cfg = paper_scenario(100, 8);
  cfg.map_file = path;
  World world(cfg, Protocol::kHlsrg);
  EXPECT_EQ(world.network().intersection_count(),
            generated.intersection_count());
  EXPECT_EQ(world.hierarchy().cols(GridLevel::kL1), 2);
  world.run_until(SimTime::from_sec(10));  // runs end to end
}

// --- replica runner ----------------------------------------------------------------

TEST(RunnerTest, ReplicasUseDistinctSeeds) {
  ScenarioConfig cfg = paper_scenario(150, 40);
  cfg.grace = SimTime::from_sec(30);
  const ReplicaSet set = run_replicas(cfg, Protocol::kHlsrg, 3, 3);
  ASSERT_EQ(set.replicas.size(), 3u);
  // Different seeds -> different radio activity.
  EXPECT_FALSE(set.replicas[0].radio_broadcasts ==
                   set.replicas[1].radio_broadcasts &&
               set.replicas[1].radio_broadcasts ==
                   set.replicas[2].radio_broadcasts);
}

#if defined(__linux__)
// Resident set size now, from /proc/self/status (VmRSS), in bytes.
std::uint64_t current_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

TEST(RunnerTest, PeakRssIsThisProcessHighWaterMark) {
  // Touch 16 MiB so the peak is well above the test binary's baseline.
  std::vector<char> block(16u << 20, 1);
  const std::uint64_t rss = current_rss_bytes();
  ASSERT_GT(rss, block.size());
  EXPECT_GE(process_peak_rss_bytes(), rss);
  EXPECT_EQ(block[block.size() / 2], 1);
}
#endif

TEST(RunnerTest, MemoryTelemetryIsStamped) {
  // Pins the peak_rss_bytes stamping fix: every replica's engine stats and
  // the run-level sample must be populated, engine_total must carry the
  // run-level RSS (defined semantics), and table_bytes must reflect the
  // protocol tables + registry of one replica.
  ScenarioConfig cfg = paper_scenario(100, 44);
  cfg.grace = SimTime::from_sec(30);
  const ReplicaSet set = run_replicas(cfg, Protocol::kHlsrg, 2, 1);
  EXPECT_GT(set.peak_rss_bytes, 0u);
  EXPECT_EQ(set.engine_total.peak_rss_bytes, set.peak_rss_bytes);
  for (const EngineStats& e : set.engine) {
    EXPECT_GT(e.peak_rss_bytes, 0u);
    EXPECT_LE(e.peak_rss_bytes, set.peak_rss_bytes);
    EXPECT_GT(e.table_bytes, 0u);
  }
  // engine_total merges table_bytes by max over replicas.
  std::uint64_t max_table = 0;
  for (const EngineStats& e : set.engine) {
    max_table = std::max(max_table, e.table_bytes);
  }
  EXPECT_EQ(set.engine_total.table_bytes, max_table);
}

TEST(RunnerTest, MergedEqualsSumOfReplicas) {
  ScenarioConfig cfg = paper_scenario(100, 41);
  cfg.grace = SimTime::from_sec(30);
  const ReplicaSet set = run_replicas(cfg, Protocol::kRlsmp, 3, 3);
  std::uint64_t updates = 0, queries = 0;
  for (const RunMetrics& m : set.replicas) {
    updates += m.update_packets_originated;
    queries += m.queries_issued;
  }
  EXPECT_EQ(set.merged.update_packets_originated, updates);
  EXPECT_EQ(set.merged.queries_issued, queries);
}

TEST(RunnerTest, ParallelEqualsSerial) {
  // The parallel runner must produce bit-identical metrics to a serial run:
  // replicas share nothing.
  ScenarioConfig cfg = paper_scenario(100, 42);
  cfg.grace = SimTime::from_sec(30);
  const ReplicaSet par = run_replicas(cfg, Protocol::kHlsrg, 4, 4);
  const ReplicaSet ser = run_replicas(cfg, Protocol::kHlsrg, 4, 1);
  ASSERT_EQ(par.replicas.size(), ser.replicas.size());
  for (std::size_t i = 0; i < par.replicas.size(); ++i) {
    EXPECT_EQ(par.replicas[i].update_packets_originated,
              ser.replicas[i].update_packets_originated);
    EXPECT_EQ(par.replicas[i].queries_succeeded,
              ser.replicas[i].queries_succeeded);
    EXPECT_EQ(par.replicas[i].radio_broadcasts,
              ser.replicas[i].radio_broadcasts);
  }
}

TEST(RunnerTest, MeansAreConsistent) {
  ScenarioConfig cfg = paper_scenario(100, 43);
  cfg.grace = SimTime::from_sec(30);
  const ReplicaSet set = run_replicas(cfg, Protocol::kHlsrg, 2, 2);
  double sum = 0;
  for (const RunMetrics& m : set.replicas) {
    sum += static_cast<double>(m.total_update_overhead());
  }
  EXPECT_DOUBLE_EQ(set.mean_update_overhead(), sum / 2.0);
  EXPECT_DOUBLE_EQ(set.mean_success_rate(), set.merged.success_rate());
}

}  // namespace
}  // namespace hlsrg
