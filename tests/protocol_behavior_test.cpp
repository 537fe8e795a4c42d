// Deeper behavioural tests of the HLSRG machinery: RSU table schemas and
// feeding paths, election/claim mechanics, the directional notification, and
// rule-engine properties over randomly sampled intersection passes.
#include <gtest/gtest.h>

#include "core/hlsrg_service.h"
#include "core/rsu_agent.h"
#include "core/vehicle_agent.h"
#include "harness/world.h"

namespace hlsrg {
namespace {

std::size_t count_spans(const TraceLog& trace, SpanKind kind) {
  std::size_t n = 0;
  for (const Span& s : trace.spans()) n += s.kind == kind ? 1 : 0;
  return n;
}

TEST(RsuBehaviorTest, L2TablesCarryTheRecordsGrid) {
  // Every L2 summary an RSU pushes to its L3 must reference the L1 grid the
  // *record* was made in, and be its full record thinned.
  ScenarioConfig cfg = paper_scenario(400, 81);
  World world(cfg, Protocol::kHlsrg);
  world.run_until(SimTime::from_sec(120));
  auto& svc = dynamic_cast<HlsrgService&>(world.service());
  const auto& h = world.hierarchy();
  for (const auto& rsu : svc.rsu_agents()) {
    if (rsu.level() != GridLevel::kL2) continue;
    const std::vector<L2Summary> summaries = rsu.l2_summaries();
    EXPECT_EQ(summaries.size(), rsu.full_table().size());
    for (const L2Summary& summary : summaries) {
      const L1Record* full = rsu.full_table().find(summary.vehicle);
      ASSERT_NE(full, nullptr);
      EXPECT_EQ(summary.time, full->time);
      EXPECT_EQ(summary.l1, full->l1);
      EXPECT_GE(summary.l1.col, 0);
      EXPECT_LT(summary.l1.col, h.cols(GridLevel::kL1));
      EXPECT_GE(summary.l1.row, 0);
      EXPECT_LT(summary.l1.row, h.rows(GridLevel::kL1));
      EXPECT_LE(summary.time, world.sim().now());
    }
  }
}

TEST(RsuBehaviorTest, L3TablesFedByL2Pushes) {
  ScenarioConfig cfg = paper_scenario(400, 82);
  World world(cfg, Protocol::kHlsrg);
  world.run_until(SimTime::from_sec(120));
  auto& svc = dynamic_cast<HlsrgService&>(world.service());
  for (const auto& rsu : svc.rsu_agents()) {
    if (rsu.level() != GridLevel::kL3) continue;
    EXPECT_GT(rsu.l3_table().size(), 0u);
    for (const L3Summary& summary : rsu.l3_table().snapshot()) {
      // Owner region on a 2 km map is always (0,0) — the only L3.
      EXPECT_EQ(summary.owner_l3, (GridCoord{0, 0}));
    }
  }
}

TEST(RsuBehaviorTest, NoAggregationTrafficWithoutRsus) {
  ScenarioConfig cfg = paper_scenario(300, 83);
  cfg.hlsrg.use_rsus = false;
  World world(cfg, Protocol::kHlsrg);
  world.run();
  // Hand-offs still happen (vehicle-to-vehicle), but nothing rides the wire.
  EXPECT_EQ(world.metrics().wired_messages, 0u);
}

TEST(ElectionBehaviorTest, AtMostOneServerClaimPerAttemptUsually) {
  // Claims suppress duplicate servers. Some duplicates survive radio loss,
  // but the claim mechanism must keep them rare: far fewer elections won
  // than election participants.
  ScenarioConfig cfg = paper_scenario(500, 84);
  World world(cfg, Protocol::kHlsrg);
  const RunMetrics& m = world.run();
  const auto elections_won = m.server_lookup_hits + m.server_lookup_misses;
  // Each query triggers at most a handful of elections across its own
  // center, the RSU descent, and the retry attempt.
  EXPECT_LT(elections_won, 12 * m.queries_issued);
}

TEST(NotificationBehaviorTest, EveryAckFollowsANotificationOrProbe) {
  ScenarioConfig cfg = paper_scenario(400, 85);
  World world(cfg, Protocol::kHlsrg);
  TraceLog trace;
  world.attach_trace(&trace);
  world.run();
  // ACKs can only be triggered by a notification reaching the target.
  EXPECT_LE(count_spans(trace, SpanKind::kAckLeg),
            count_spans(trace, SpanKind::kNotification));
  // And successes cannot exceed ACKs.
  EXPECT_LE(world.metrics().queries_succeeded, world.metrics().acks_sent);
}

TEST(CollectionBehaviorTest, HandoffsAndPushesHappen) {
  ScenarioConfig cfg = paper_scenario(500, 86);
  World world(cfg, Protocol::kHlsrg);
  TraceLog trace;
  world.attach_trace(&trace);
  world.run_until(SimTime::from_sec(150));
  EXPECT_GT(count_spans(trace, SpanKind::kTableHandoff), 0u);
  EXPECT_GT(count_spans(trace, SpanKind::kTablePush), 0u);
}

TEST(CollectionBehaviorTest, CollectionTimerIsArmedOnlyAroundCenterDuty) {
  // The periodic collection tick is conditional (DESIGN.md §15): entering a
  // grid center arms it onto the fixed phase grid; leaving lets the next
  // tick lazily disarm. At any instant, center duty implies an armed timer
  // (the converse can lag by up to one push period).
  ScenarioConfig cfg = paper_scenario(300, 87);
  World world(cfg, Protocol::kHlsrg);
  auto& svc = static_cast<HlsrgService&>(world.service());
  world.run_until(SimTime::from_sec(120));
  std::size_t on_duty = 0;
  std::size_t armed = 0;
  for (int i = 0; i < cfg.vehicles; ++i) {
    const HlsrgVehicleAgent& agent =
        svc.vehicle_agent(VehicleId{static_cast<std::uint32_t>(i)});
    if (agent.in_center()) {
      ++on_duty;
      EXPECT_TRUE(agent.collection_armed())
          << "vehicle " << i << " holds center duty without a timer";
    }
    armed += agent.collection_armed() ? 1 : 0;
  }
  // Sanity: the invariant must not hold vacuously, and most of the fleet
  // must be idle (the whole point of making the timer conditional).
  EXPECT_GT(on_duty, 0u);
  EXPECT_LT(armed, static_cast<std::size_t>(cfg.vehicles) / 2);
}

// --- rule engine properties over sampled passes --------------------------------

class RulePropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RulePropertySweep, DecisionsAreInternallyConsistent) {
  const RoadNetwork net = build_manhattan_map({});
  const GridHierarchy hierarchy(net, build_partition(net));
  const TurnPolicy policy(net, {});
  const HlsrgConfig cfg;
  const UpdateRuleEngine rules(net, hierarchy, policy, cfg);

  Rng rng(GetParam());
  int sends = 0, passes = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    // Random pass: pick a segment, then an exit the way mobility would
    // (straight-biased, artery-biased) so the suppression claim below is
    // evaluated against realistic traffic.
    const SegmentId in{rng.uniform_u64(net.segment_count())};
    const Segment& seg = net.segment(in);
    const SegmentId out = policy.choose_exit(in, rng);
    const UpdateDecision d = rules.evaluate(seg.to, in, out);
    ++passes;
    sends += d.send ? 1 : 0;

    // Structural invariants.
    EXPECT_EQ(d.grid_changed, !(d.old_l1 == d.new_l1));
    EXPECT_EQ(d.crossing_level > 0, d.grid_changed);
    EXPECT_EQ(d.was_class1, hierarchy.on_selected_artery(seg.road));

    const bool turning = policy.is_turn(in, out);
    if (d.was_class1) {
      // Class 1 sends exactly on turns or straight L3 crossings.
      EXPECT_EQ(d.send, turning || (!turning && d.crossing_level >= 3));
    } else {
      EXPECT_EQ(d.send,
                (!turning && d.crossing_level >= 1) ||
                    (turning &&
                     hierarchy.on_selected_artery(net.segment(out).road)));
    }
  }
  // The rules must actually suppress most passes (that is their job).
  EXPECT_GT(passes, 1000);
  EXPECT_LT(sends, passes / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulePropertySweep,
                         ::testing::Values(1u, 7u, 21u, 77u));

// --- multi-L3 routing on a big map ----------------------------------------------

TEST(MultiL3Test, QueriesResolveAcrossL3Regions) {
  // A 4 km map has 2x2 L3 regions; queries whose source and target live in
  // different regions must traverse the wired L3 mesh.
  ScenarioConfig cfg = paper_scenario(700, 87);
  cfg.map.size_m = 4000.0;
  World world(cfg, Protocol::kHlsrg);
  const RunMetrics& m = world.run();
  EXPECT_GT(m.success_rate(), 0.5);
  EXPECT_GT(m.wired_messages, 0u);
}

}  // namespace
}  // namespace hlsrg
