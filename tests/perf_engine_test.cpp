// Equivalence and regression tests for the hot-path engine overhaul.
//
// The optimized engine (cached contention density with the saturation
// shortcut, batched query_with_density, slab event queue, shared immutable
// packets) must be behavior-identical to the straightforward reference
// implementations it replaced. These tests pin that equivalence:
//   * full-run state digests, reference density vs cached density, across
//     the paper scenarios, protocols, beacons, and an all-kinds fault plan;
//   * the slab EventQueue against a naive sorted-list model under fuzzed
//     schedule/cancel interleavings, plus its conservation law;
//   * OpenAddressMap against std::unordered_map, including the all-ones
//     key;
//   * nearest_intersection's ring-walking grid against a brute-force scan;
//   * channel-ledger closure now that every drop path is accounted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "audit/auditor.h"
#include "harness/digest.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/world.h"
#include "net/neighbor_index.h"
#include "roadnet/map_builder.h"
#include "roadnet/road_network.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "util/open_address_map.h"

namespace hlsrg {
namespace {

// ---------------------------------------------------------------------------
// Reference-vs-optimized digest equality.
//
// With the reference seam on, the radio recounts every receiver's density
// exactly (bypassing the 3x3 cell-sum shortcut and the per-node cache).
// The shortcut only fires when the cell-block bound already clears the
// contention-free threshold, where exact and approximate counts produce the
// same loss probability — so every random draw, and therefore the final
// state digest, must match bit for bit.

std::uint64_t digest_of(const ScenarioConfig& cfg, Protocol protocol,
                        bool reference_density) {
  World world(cfg, protocol);
  world.medium().set_reference_density_for_test(reference_density);
  world.run();
  return state_digest(world);
}

void expect_density_shortcut_neutral(const ScenarioConfig& cfg,
                                     Protocol protocol) {
  const std::uint64_t reference = digest_of(cfg, protocol, true);
  const std::uint64_t optimized = digest_of(cfg, protocol, false);
  EXPECT_EQ(reference, optimized)
      << "cached density diverged from the exact recount under "
      << protocol_name(protocol);
}

TEST(DensityEquivalenceTest, HlsrgPaperScenario) {
  expect_density_shortcut_neutral(paper_scenario(300, 42), Protocol::kHlsrg);
}

TEST(DensityEquivalenceTest, HlsrgDenserSweepPoint) {
  // Fig 3.4's densest x-axis point: saturated neighborhoods exercise the
  // exact-count fallback, not just the cell-sum shortcut.
  expect_density_shortcut_neutral(paper_scenario(500, 7), Protocol::kHlsrg);
}

TEST(DensityEquivalenceTest, RlsmpPaperScenario) {
  expect_density_shortcut_neutral(paper_scenario(300, 11), Protocol::kRlsmp);
}

TEST(DensityEquivalenceTest, FloodScenario) {
  // FLOOD rebroadcasts everything, so this is the densest broadcast workload
  // per vehicle; keep the fleet small.
  expect_density_shortcut_neutral(paper_scenario(150, 9), Protocol::kFlood);
}

TEST(DensityEquivalenceTest, WithBeaconsEnabled) {
  ScenarioConfig cfg = paper_scenario(200, 5);
  cfg.beacons.enabled = true;
  expect_density_shortcut_neutral(cfg, Protocol::kHlsrg);
}

TEST(DensityEquivalenceTest, UnderAllFaultKindsPlan) {
  ScenarioConfig cfg = paper_scenario(250, 13);
  FaultPlan plan;
  plan.fault_seed = 99;
  FaultWindow rsu;
  rsu.kind = FaultKind::kRsuCrash;
  rsu.begin = SimTime::from_sec(60);
  rsu.end = SimTime::from_sec(90);
  rsu.level = 3;
  rsu.col = 0;
  rsu.row = 0;
  plan.windows.push_back(rsu);
  FaultWindow cut;
  cut.kind = FaultKind::kLinkCut;
  cut.begin = SimTime::from_sec(65);
  cut.end = SimTime::from_sec(95);
  cut.level = 2;
  cut.col = 1;
  cut.row = 0;
  cut.peer_level = 3;
  cut.peer_col = 0;
  cut.peer_row = 0;
  plan.windows.push_back(cut);
  FaultWindow part;
  part.kind = FaultKind::kPartition;
  part.begin = SimTime::from_sec(70);
  part.end = SimTime::from_sec(100);
  part.has_box = true;
  part.box = Aabb{{0.0, 0.0}, {1000.0, 2000.0}};
  plan.windows.push_back(part);
  FaultWindow loss;
  loss.kind = FaultKind::kRadioLoss;
  loss.begin = SimTime::from_sec(60);
  loss.end = SimTime::from_sec(110);
  loss.has_box = true;
  loss.box = Aabb{{500.0, 500.0}, {1500.0, 1500.0}};
  loss.extra_loss = 0.3;
  plan.windows.push_back(loss);
  FaultWindow gps;
  gps.kind = FaultKind::kGpsNoise;
  gps.begin = SimTime::from_sec(75);
  gps.end = SimTime::from_sec(105);
  gps.sigma_m = 15.0;
  plan.windows.push_back(gps);
  cfg.fault_plan = plan;
  expect_density_shortcut_neutral(cfg, Protocol::kHlsrg);
}

// ---------------------------------------------------------------------------
// Slab event queue: exact cancel semantics, slot reuse, conservation.

TEST(SlabEventQueueTest, CancelReturnsTrueOnlyWhilePending) {
  EventQueue q;
  int fired = 0;
  const EventHandle h =
      q.schedule_at(SimTime::from_sec(1), [&fired] { ++fired; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));  // already cancelled
  q.run_until(SimTime::from_sec(2));
  EXPECT_EQ(fired, 0);

  const EventHandle h2 =
      q.schedule_at(SimTime::from_sec(3), [&fired] { ++fired; });
  q.run_until(SimTime::from_sec(4));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.cancel(h2));  // already fired
}

TEST(SlabEventQueueTest, StaleHandleCannotCancelSlotReuser) {
  // The freed slot of a dispatched event gets recycled; the old handle's
  // sequence number no longer matches, so cancelling through it must not
  // touch the new occupant (the classic ABA hazard of slab indices).
  EventQueue q;
  int fired = 0;
  const EventHandle stale =
      q.schedule_at(SimTime::from_sec(1), [&fired] { ++fired; });
  q.run_until(SimTime::from_sec(1));
  EXPECT_EQ(fired, 1);
  // With one slot free, this reuses it.
  q.schedule_at(SimTime::from_sec(2), [&fired] { ++fired; });
  EXPECT_FALSE(q.cancel(stale));
  q.run_until(SimTime::from_sec(3));
  EXPECT_EQ(fired, 2);
}

TEST(SlabEventQueueTest, ActionsMayScheduleAndCancelReentrantly) {
  EventQueue q;
  std::vector<int> order;
  EventHandle victim;
  q.schedule_at(SimTime::from_sec(1), [&] {
    order.push_back(1);
    // Nested schedule at the same timestamp runs later this timestamp
    // (FIFO tie-break), nested cancel kills a pending peer.
    q.schedule_at(SimTime::from_sec(1), [&] { order.push_back(2); });
    EXPECT_TRUE(q.cancel(victim));
  });
  victim = q.schedule_at(SimTime::from_sec(1), [&] { order.push_back(99); });
  q.schedule_at(SimTime::from_sec(2), [&] { order.push_back(3); });
  q.run_until(SimTime::from_sec(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// One round of random schedule/cancel/run against the reference model: events
// as (time, seq) pairs in a plain vector, dispatched in ascending (time, seq)
// order over the uncancelled ones. New events land up to `schedule_span_us`
// ahead; each run advances up to `run_span_us`. Returns the queue's peak
// depth.
std::size_t fuzz_round_against_model(Rng& rng, int ops,
                                     std::int64_t schedule_span_us,
                                     std::int64_t run_span_us) {
  EventQueue q;
  struct ModelEvent {
    std::int64_t time_us;
    std::uint64_t seq;
    bool cancelled = false;
    bool dispatched = false;
  };
  std::vector<ModelEvent> model;
  std::vector<EventHandle> handles;
  std::vector<std::uint64_t> real_order;
  std::vector<std::uint64_t> expect_order;
  std::uint64_t next_seq = 1;
  std::int64_t now_us = 0;

  const auto model_run_until = [&](std::int64_t until_us) {
    while (true) {
      ModelEvent* best = nullptr;
      for (ModelEvent& e : model) {
        if (e.cancelled || e.dispatched || e.time_us > until_us) continue;
        if (best == nullptr || e.time_us < best->time_us ||
            (e.time_us == best->time_us && e.seq < best->seq)) {
          best = &e;
        }
      }
      if (best == nullptr) break;
      best->dispatched = true;
      expect_order.push_back(best->seq);
    }
    now_us = until_us;
  };

  for (int op = 0; op < ops; ++op) {
    const std::int64_t roll = rng.uniform_int(0, 9);
    if (roll < 6) {
      const std::int64_t when = now_us + rng.uniform_int(0, schedule_span_us);
      const std::uint64_t seq = next_seq++;
      handles.push_back(q.schedule_at(
          SimTime::from_us(when),
          [&real_order, seq] { real_order.push_back(seq); }));
      model.push_back({when, seq});
    } else if (roll < 8 && !handles.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      const bool ok = q.cancel(handles[pick]);
      ModelEvent& e = model[pick];
      const bool model_ok = !e.cancelled && !e.dispatched;
      EXPECT_EQ(ok, model_ok) << "cancel semantics diverged";
      e.cancelled = e.cancelled || model_ok;
    } else {
      const std::int64_t until = now_us + rng.uniform_int(0, run_span_us);
      q.run_until(SimTime::from_us(until));
      model_run_until(until);
    }
  }
  const std::int64_t drain_us = now_us + schedule_span_us + 1;
  q.run_until(SimTime::from_us(drain_us));
  model_run_until(drain_us);
  EXPECT_EQ(real_order, expect_order) << "dispatch order diverged";

  // Conservation law over the whole round.
  EXPECT_EQ(q.events_scheduled(),
            q.events_dispatched() + q.events_cancelled() + q.size());
  EXPECT_TRUE(q.empty());
  return q.peak_depth();
}

TEST(SlabEventQueueTest, FuzzAgainstSortedListModel) {
  // The slab queue must dispatch the model's exact sequence under random
  // schedule/cancel/run interleavings, including handles that go stale
  // across slot reuse.
  Rng rng(0xfeedbeef);
  for (int round = 0; round < 20; ++round) {
    fuzz_round_against_model(rng, 400, 5000, 2000);
  }
  // Far-future events and short runs keep hundreds pending, so the slab
  // spans several chunks and freed slots are reused across chunk bounds.
  for (int round = 0; round < 3; ++round) {
    EXPECT_GT(fuzz_round_against_model(rng, 1200, 1000000, 500), 256u);
  }
}

// ---------------------------------------------------------------------------
// OpenAddressMap vs std::unordered_map.

TEST(OpenAddressMapTest, AllOnesKeyIsAnOrdinaryKey) {
  // ~0 packs cell (-1, -1). Slot states live in their own array, so no bit
  // pattern is reserved: the all-ones key inserts, finds and clears like any
  // other.
  OpenAddressMap<std::uint64_t, std::uint32_t> map;
  EXPECT_EQ(map.find(~std::uint64_t{0}), nullptr);
  map.find_or_insert(~std::uint64_t{0}, 7) = 9;
  ASSERT_NE(map.find(~std::uint64_t{0}), nullptr);
  EXPECT_EQ(*map.find(~std::uint64_t{0}), 9u);
  EXPECT_EQ(map.size(), 1u);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(~std::uint64_t{0}), nullptr);
}

TEST(OpenAddressMapTest, FuzzAgainstUnorderedMap) {
  Rng rng(0xc0ffee);
  OpenAddressMap<std::uint64_t, std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  for (int op = 0; op < 20000; ++op) {
    // Small key space forces collisions; keys near the top of the space hit
    // the all-ones key and its probe neighborhood.
    std::uint64_t key = static_cast<std::uint64_t>(rng.uniform_int(0, 63));
    if (rng.chance(0.1)) key = ~std::uint64_t{0} - key % 4;
    const std::int64_t roll = rng.uniform_int(0, 9);
    if (roll < 5) {
      const auto value = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
      std::uint32_t& slot = map.find_or_insert(key, value);
      auto [it, inserted] = ref.try_emplace(key, value);
      ASSERT_EQ(slot, it->second);
      if (rng.chance(0.5)) {
        slot = value + 1;
        it->second = value + 1;
      }
    } else if (roll < 9) {
      const std::uint32_t* found = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end());
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    } else if (rng.chance(0.02)) {
      map.clear();
      ref.clear();
    }
    ASSERT_EQ(map.size(), ref.size());
  }
}

// ---------------------------------------------------------------------------
// nearest_intersection grid vs brute force.

IntersectionId brute_force_nearest(const RoadNetwork& net, Vec2 p) {
  IntersectionId best;
  double best_d2 = 0.0;
  for (std::size_t i = 0; i < net.intersection_count(); ++i) {
    const IntersectionId id{static_cast<std::uint32_t>(i)};
    const Vec2 d = net.position(id) - p;
    const double d2 = d.x * d.x + d.y * d.y;
    if (!best.valid() || d2 < best_d2) {
      best = id;
      best_d2 = d2;
    }
  }
  return best;
}

void fuzz_nearest(const RoadNetwork& net, std::uint64_t seed) {
  Rng rng(seed);
  const Aabb box = net.bounds();
  for (int i = 0; i < 2000; ++i) {
    // Points across the map plus a margin outside it (queries can originate
    // off-map: GPS noise, box corners).
    const double margin = 600.0;
    const Vec2 p{rng.uniform(box.lo.x - margin, box.hi.x + margin),
                 rng.uniform(box.lo.y - margin, box.hi.y + margin)};
    ASSERT_EQ(net.nearest_intersection(p), brute_force_nearest(net, p))
        << "at (" << p.x << ", " << p.y << ")";
  }
  // Exactly-on-intersection queries (distance 0, tie on the point itself).
  for (int i = 0; i < 200; ++i) {
    const auto idx = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(net.intersection_count()) - 1));
    const Vec2 p = net.position(IntersectionId{idx});
    ASSERT_EQ(net.nearest_intersection(p), brute_force_nearest(net, p));
  }
}

TEST(NearestIntersectionGridTest, MatchesBruteForceOnRegularMap) {
  MapConfig cfg;
  fuzz_nearest(build_manhattan_map(cfg), 21);
}

TEST(NearestIntersectionGridTest, MatchesBruteForceOnIrregularMap) {
  MapConfig cfg;
  cfg.irregular = true;
  cfg.seed = 4;
  fuzz_nearest(build_manhattan_map(cfg), 22);
}

TEST(NearestIntersectionGridTest, MatchesBruteForceOnSmallDenseMap) {
  MapConfig cfg;
  cfg.size_m = 500.0;
  cfg.artery_spacing = 250.0;
  cfg.minor_spacing = 125.0;
  fuzz_nearest(build_manhattan_map(cfg), 23);
}

TEST(NearestIntersectionGridTest, HandBuiltGraphWithEquidistantTie) {
  // Two intersections equidistant from the query: the lowest index wins,
  // which forces the ring walk to keep scanning on exact distance ties.
  RoadNetwork net;
  const IntersectionId a = net.add_intersection(Vec2{0.0, 0.0});
  const IntersectionId b = net.add_intersection(Vec2{100.0, 0.0});
  const IntersectionId c = net.add_intersection(Vec2{50.0, 80.0});
  const RoadId r = net.add_road(RoadClass::kNormal, Orientation::kOther);
  net.add_edge(r, a, b);
  net.add_edge(r, b, c);
  net.finalize();
  EXPECT_EQ(net.nearest_intersection(Vec2{50.0, 0.0}), a);  // tie a/b -> a
  EXPECT_EQ(net.nearest_intersection(Vec2{50.0, 60.0}), c);
}

// ---------------------------------------------------------------------------
// Channel-ledger closure (satellite bugfix b) and engine counters.

TEST(LedgerClosureTest, ConservationHoldsWithBeaconsAndFrames) {
  // Beacons broadcast via broadcast_each and GPSR forwards via
  // unicast_frame — the two paths whose drops the seed never ledgered. With
  // the ledger closed, the tightened conservation auditor (drops must EQUAL
  // the ledger total) stays clean over a full run.
  ScenarioConfig cfg = paper_scenario(150, 3);
  cfg.beacons.enabled = true;
  World world(cfg, Protocol::kHlsrg);
  world.run();
  const AuditReport report = world.audit_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
  const RunMetrics& m = world.metrics();
  EXPECT_EQ(m.radio_drops + m.wired_drops, m.channel.total_dropped());
}

TEST(EngineStatsTest, SimThroughputIsReported) {
  ScenarioConfig cfg = paper_scenario(100, 2);
  World world(cfg, Protocol::kHlsrg);
  world.run();
  EngineStats s = world.sim().engine_stats();
  EXPECT_GT(s.sim_time_sec, 0.0);
  EXPECT_DOUBLE_EQ(s.sim_time_sec, world.sim().now().sec());
  // wall_clock_sec / peak_rss_bytes are the harness's to fill.
  s.wall_clock_sec = 2.0;
  EXPECT_DOUBLE_EQ(s.sim_seconds_per_sec(), s.sim_time_sec / 2.0);
}

TEST(EngineStatsTest, MergeSumsRebuildsAndMaxesPeaks) {
  EngineStats a;
  a.index_rebuilds = 10;
  a.peak_rss_bytes = 5000;
  a.wall_clock_sec = 1.0;
  EngineStats b;
  b.index_rebuilds = 32;
  b.peak_rss_bytes = 4000;
  b.wall_clock_sec = 3.0;
  a.merge(b);
  EXPECT_EQ(a.index_rebuilds, 42u);
  EXPECT_EQ(a.peak_rss_bytes, 5000u);
  EXPECT_DOUBLE_EQ(a.wall_clock_sec, 4.0);
}

TEST(EngineStatsTest, IndexWorkCountersAreStampedFromTheMedium) {
  const ScenarioConfig cfg = paper_scenario(100, 2);
  const ReplicaSet set = run_replicas(cfg, Protocol::kHlsrg, 1, 1);
  World world(cfg, Protocol::kHlsrg);
  world.run();
  const NeighborIndex& index = world.medium().index();
  const EngineStats& e = set.engine[0];
  EXPECT_GT(e.index_rebuilds, 0u);
  EXPECT_GT(e.density_recounts, 0u);
  EXPECT_EQ(e.index_rebuilds, index.rebuilds());
  EXPECT_EQ(e.density_recounts, index.density_recounts());
  // The pose bridge commits a whole mobility tick before any broadcast, so
  // the index rebuilds at most once per tick (plus the initial build).
  const auto ticks = static_cast<std::uint64_t>(
      cfg.end_time().sec() / kMobilityTickSec);
  EXPECT_LE(e.index_rebuilds, ticks + 1);
}

}  // namespace
}  // namespace hlsrg
