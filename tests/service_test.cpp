// Service-tier tests: open-loop generator determinism and stream isolation,
// hot-destination cache semantics (TTL, invalidation-on-update, eviction),
// batching-window crash conservation, and admission-control shed accounting
// closing through the ConservationAuditor.
#include <gtest/gtest.h>

#include <cstddef>

#include "audit/conservation_audit.h"
#include "core/hlsrg_service.h"
#include "core/rsu_agent.h"
#include "harness/digest.h"
#include "harness/scenario.h"
#include "harness/world.h"
#include "service/batcher.h"
#include "service/hot_cache.h"
#include "service/knee.h"
#include "sim/simulator.h"

namespace hlsrg {
namespace {

// Small map, short horizon: enough traffic for the tier paths to fire
// without bench-scale run times.
ScenarioConfig tier_scenario(std::uint64_t seed = 41) {
  ScenarioConfig cfg = paper_scenario(120, seed);
  cfg.map.size_m = 1000.0;
  cfg.warmup = SimTime::from_sec(30.0);
  cfg.query_window = SimTime::from_sec(15.0);
  cfg.grace = SimTime::from_sec(20.0);
  // Open-loop arrivals are the only load: the sweep-style assertions below
  // reason about offered counts, and scenario-workload sources would blur
  // them.
  cfg.workload = ScenarioConfig::WorkloadKind::kOneShot;
  cfg.source_fraction = 0.0;
  cfg.hotspot_targets = 3;
  cfg.service.open_loop_rate_per_sec = 12.0;
  cfg.service.hotspot_fraction = 0.9;
  return cfg;
}

AuditReport conservation_report(World& world) {
  AuditReport report;
  ConservationAuditor{}.check(world.audit_scope(), &report);
  return report;
}

// --- hot-destination cache (unit) ------------------------------------------

L1Record record_for(VehicleId v, SimTime t) {
  L1Record r;
  r.vehicle = v;
  r.time = t;
  return r;
}

TEST(HotCacheTest, ProbeHitsInsideTtlAndExpiresAfter) {
  HotDestinationCache cache;
  cache.configure(SimTime::from_sec(5.0), 8);
  cache.fill(record_for(VehicleId{1u}, SimTime::from_sec(10.0)),
             SimTime::from_sec(10.0));
  EXPECT_NE(cache.probe(VehicleId{1u}, SimTime::from_sec(14.0)), nullptr);
  // Past the TTL the entry is dropped on probe, not just masked.
  EXPECT_EQ(cache.probe(VehicleId{1u}, SimTime::from_sec(15.5)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(HotCacheTest, InvalidateDropsOnlyStaleEntries) {
  HotDestinationCache cache;
  cache.configure(SimTime::from_sec(60.0), 8);
  cache.fill(record_for(VehicleId{1u}, SimTime::from_sec(10.0)),
             SimTime::from_sec(10.0));
  // An older update must not evict the newer cached record.
  EXPECT_FALSE(cache.invalidate_if_stale(VehicleId{1u}, SimTime::from_sec(9.0)));
  EXPECT_NE(cache.probe(VehicleId{1u}, SimTime::from_sec(11.0)), nullptr);
  // A fresher update must.
  EXPECT_TRUE(cache.invalidate_if_stale(VehicleId{1u}, SimTime::from_sec(12.0)));
  EXPECT_EQ(cache.probe(VehicleId{1u}, SimTime::from_sec(12.0)), nullptr);
  // Invalidating an absent vehicle is a no-op.
  EXPECT_FALSE(cache.invalidate_if_stale(VehicleId{7u}, SimTime::from_sec(12.0)));
}

TEST(HotCacheTest, CapacityEvictsOldestFirst) {
  HotDestinationCache cache;
  cache.configure(SimTime::from_sec(60.0), 2);
  cache.fill(record_for(VehicleId{1u}, SimTime::from_sec(1.0)),
             SimTime::from_sec(1.0));
  cache.fill(record_for(VehicleId{2u}, SimTime::from_sec(2.0)),
             SimTime::from_sec(2.0));
  cache.fill(record_for(VehicleId{3u}, SimTime::from_sec(3.0)),
             SimTime::from_sec(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.probe(VehicleId{1u}, SimTime::from_sec(3.0)), nullptr);
  EXPECT_NE(cache.probe(VehicleId{2u}, SimTime::from_sec(3.0)), nullptr);
  EXPECT_NE(cache.probe(VehicleId{3u}, SimTime::from_sec(3.0)), nullptr);
}

TEST(HotCacheTest, RefillRefreshesInPlaceWithoutEviction) {
  HotDestinationCache cache;
  cache.configure(SimTime::from_sec(60.0), 2);
  cache.fill(record_for(VehicleId{1u}, SimTime::from_sec(1.0)),
             SimTime::from_sec(1.0));
  cache.fill(record_for(VehicleId{1u}, SimTime::from_sec(5.0)),
             SimTime::from_sec(5.0));
  EXPECT_EQ(cache.size(), 1u);
  const L1Record* r = cache.probe(VehicleId{1u}, SimTime::from_sec(5.0));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->time, SimTime::from_sec(5.0));
}

// --- batching window (unit) -------------------------------------------------

QueryPayload query_for(std::uint32_t id, VehicleId target) {
  QueryPayload q;
  q.query_id = QueryTracker::QueryId{id};
  q.target = target;
  return q;
}

TEST(BatcherTest, FirstArmsLaterHoldCapFlushes) {
  QueryBatcher b;
  const NodeId dest{7u};
  const VehicleId tgt{3u};
  EXPECT_EQ(b.add(dest, tgt, query_for(1, tgt), 3), QueryBatcher::Enqueue::kArmWindow);
  EXPECT_EQ(b.add(dest, tgt, query_for(2, tgt), 3), QueryBatcher::Enqueue::kHeld);
  EXPECT_EQ(b.add(dest, tgt, query_for(3, tgt), 3), QueryBatcher::Enqueue::kFlushNow);
  QueryBatcher::Batch batch = b.take(dest, tgt);
  EXPECT_EQ(batch.queries.size(), 3u);
  EXPECT_EQ(b.pending_batches(), 0u);
}

TEST(BatcherTest, DistinctDestinationsBatchIndependently) {
  QueryBatcher b;
  EXPECT_EQ(b.add(NodeId{1u}, VehicleId{9u}, query_for(1, VehicleId{9u}), 8),
            QueryBatcher::Enqueue::kArmWindow);
  EXPECT_EQ(b.add(NodeId{2u}, VehicleId{9u}, query_for(2, VehicleId{9u}), 8),
            QueryBatcher::Enqueue::kArmWindow);
  EXPECT_EQ(b.add(NodeId{1u}, VehicleId{4u}, query_for(3, VehicleId{4u}), 8),
            QueryBatcher::Enqueue::kArmWindow);
  EXPECT_EQ(b.pending_batches(), 3u);
  const std::vector<QueryBatcher::Batch> drained = b.drain_all();
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_EQ(b.pending_batches(), 0u);
}

// --- knee analysis (unit) ---------------------------------------------------

TEST(KneeTest, PicksHighestAdmissibleRateAndBestGoodput) {
  std::vector<LoadPoint> pts(4);
  pts[0] = {4.0, 3.5, 100.0, 0.9, 0.9};
  pts[1] = {12.0, 10.0, 300.0, 0.85, 0.85};
  pts[2] = {36.0, 9.0, 900.0, 0.6, 0.6};    // goodput dips but still admissible
  pts[3] = {108.0, 2.0, 9000.0, 0.1, 0.1};  // busts the budget
  const KneeResult k = find_knee(pts, 1000.0, 0.5);
  ASSERT_TRUE(k.found);
  EXPECT_EQ(k.knee_rate, 36.0);
  // Sustained goodput tolerates the non-monotone dip: best admissible wins.
  EXPECT_EQ(k.sustained_goodput, 10.0);
  EXPECT_EQ(k.p99_at_knee_ms, 900.0);
}

TEST(KneeTest, NoAdmissiblePointReportsNotFound) {
  std::vector<LoadPoint> pts(1);
  pts[0] = {4.0, 3.5, 5000.0, 0.9, 0.9};
  EXPECT_FALSE(find_knee(pts, 1000.0, 0.5).found);
  EXPECT_FALSE(find_knee({}, 1000.0, 0.5).found);
}

// --- open-loop generator ----------------------------------------------------

TEST(OpenLoopTest, SameSeedSameArrivals) {
  World a(tier_scenario(), Protocol::kHlsrg);
  World b(tier_scenario(), Protocol::kHlsrg);
  a.run_until(tier_scenario().end_time());
  b.run_until(tier_scenario().end_time());
  ASSERT_NE(a.open_loop(), nullptr);
  ASSERT_NE(b.open_loop(), nullptr);
  EXPECT_GT(a.open_loop()->generated(), 0u);
  EXPECT_EQ(a.open_loop()->generated(), b.open_loop()->generated());
  EXPECT_EQ(a.metrics().queries_offered, b.metrics().queries_offered);
  EXPECT_EQ(state_digest(a), state_digest(b));
}

TEST(OpenLoopTest, RampedRateIsLinearAndClampedAtZero) {
  ScenarioConfig cfg = tier_scenario();
  cfg.service.open_loop_rate_per_sec = 10.0;
  cfg.service.open_loop_ramp_per_sec2 = -2.0;
  World w(cfg, Protocol::kHlsrg);
  ASSERT_NE(w.open_loop(), nullptr);
  const SimTime start = cfg.warmup;
  EXPECT_DOUBLE_EQ(w.open_loop()->rate_at(start), 10.0);
  EXPECT_DOUBLE_EQ(w.open_loop()->rate_at(start + SimTime::from_sec(3.0)), 4.0);
  // Negative ramps clamp instead of going negative.
  EXPECT_DOUBLE_EQ(w.open_loop()->rate_at(start + SimTime::from_sec(8.0)), 0.0);
}

TEST(OpenLoopTest, InertTierLeavesRunIdentical) {
  // Settings whose mechanism is off must not perturb a single event: the
  // admission seam routes queries but draws nothing from any RNG stream.
  ScenarioConfig plain = paper_scenario(100, 7);
  plain.map.size_m = 1000.0;
  plain.query_window = SimTime::from_sec(10.0);
  plain.grace = SimTime::from_sec(15.0);
  ScenarioConfig inert = plain;
  inert.service.batch_window = SimTime::from_ms(400.0);
  inert.service.max_batch = 2;
  inert.service.cache_ttl = SimTime::from_sec(1.0);
  inert.service.cache_capacity = 4;
  inert.service.hotspot_fraction = 0.1;
  ASSERT_FALSE(inert.service.active());
  World a(plain, Protocol::kHlsrg);
  World b(inert, Protocol::kHlsrg);
  a.run_until(plain.end_time());
  b.run_until(inert.end_time());
  EXPECT_EQ(state_digest(a), state_digest(b));
  EXPECT_EQ(a.metrics().queries_issued, b.metrics().queries_issued);
  // The seam still accounts offered load even when it never sheds.
  EXPECT_EQ(b.metrics().queries_offered, b.metrics().queries_issued);
  EXPECT_EQ(b.metrics().queries_shed, 0u);
}

// --- admission control / shedding -------------------------------------------

TEST(AdmissionTest, ShedCountersCloseThroughConservationAuditor) {
  ScenarioConfig cfg = tier_scenario(43);
  cfg.service.open_loop_rate_per_sec = 40.0;
  cfg.service.max_outstanding = 4;  // absurdly tight: shedding must fire
  World w(cfg, Protocol::kHlsrg);
  w.run_until(cfg.end_time());
  const RunMetrics& m = w.metrics();
  EXPECT_GT(m.queries_offered, 0u);
  EXPECT_GT(m.queries_shed, 0u);
  // Every offered query either entered the protocol or was shed — never both,
  // never neither. Caching is off, so the split is exact.
  EXPECT_EQ(m.queries_offered, m.queries_issued + m.queries_shed);
  // Ledger shed column carries both shed kinds, and the auditor agrees.
  EXPECT_EQ(m.channel.total_shed(), m.queries_shed + m.retries_shed);
  const AuditReport report = conservation_report(w);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // Shed work never strands a query.
  EXPECT_EQ(m.queries_stranded, 0u);
}

TEST(AdmissionTest, UnboundedTierNeverSheds) {
  ScenarioConfig cfg = tier_scenario(44);
  cfg.service.max_outstanding = 0;
  World w(cfg, Protocol::kHlsrg);
  w.run_until(cfg.end_time());
  EXPECT_EQ(w.metrics().queries_shed, 0u);
  EXPECT_EQ(w.metrics().retries_shed, 0u);
  EXPECT_EQ(w.metrics().queries_offered, w.metrics().queries_issued);
}

// --- cache invalidation under live updates ----------------------------------

TEST(ServiceWorldTest, CacheInvalidationFiresAndConservationHolds) {
  ScenarioConfig cfg = tier_scenario(41);
  cfg.service.caching = true;
  cfg.service.cache_ttl = SimTime::from_sec(20.0);
  cfg.service.cache_capacity = 256;
  World w(cfg, Protocol::kHlsrg);
  w.run_until(cfg.end_time());
  // Fills happen on the owner-RSU answer path; moving hot targets then push
  // fresher updates, which must invalidate the shadowing entries.
  EXPECT_GT(w.metrics().cache_invalidations, 0u);
  const AuditReport report = conservation_report(w);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- batching window under RSU crash ----------------------------------------

TEST(ServiceWorldTest, MidWindowRsuCrashConservesQueries) {
  ScenarioConfig cfg = tier_scenario(42);
  cfg.service.open_loop_rate_per_sec = 30.0;
  cfg.service.hotspot_fraction = 1.0;
  cfg.hotspot_targets = 1;  // all co-destined: batches form constantly
  cfg.service.batching = true;
  cfg.service.batch_window = SimTime::from_ms(400.0);
  cfg.service.max_batch = 16;  // windows close by timer, stay open longer
  World w(cfg, Protocol::kHlsrg);
  auto& svc = static_cast<HlsrgService&>(w.service());

  // Step through the query window until some RSU holds an open batch, then
  // crash exactly that RSU mid-window.
  bool crashed = false;
  SimTime t = cfg.warmup;
  const SimTime window_end = cfg.warmup + cfg.query_window;
  while (!crashed && t < window_end) {
    t = t + SimTime::from_ms(100.0);
    w.run_until(t);
    for (std::size_t i = 0; i < svc.rsu_agents().size(); ++i) {
      if (svc.rsu_agents()[i].pending_batches() > 0) {
        svc.set_rsu_up(RsuId{i}, false);
        crashed = true;
        break;
      }
    }
  }
  ASSERT_TRUE(crashed) << "no batch ever formed; raise the rate";
  w.run_until(t + SimTime::from_sec(2.0));
  // Reboot so later queries have a full backbone again.
  for (std::size_t i = 0; i < svc.rsu_agents().size(); ++i) {
    if (!svc.rsu_agents()[i].up()) svc.set_rsu_up(RsuId{i}, true);
  }
  w.run_until(cfg.end_time());

  const RunMetrics& m = w.metrics();
  EXPECT_GT(m.batched_queries, 0u);
  // The crash dropped held queries, but their sources recover through the
  // retry path: nothing strands and the ledger still closes.
  EXPECT_EQ(m.queries_stranded, 0u);
  EXPECT_EQ(w.service().tracker().outstanding(), 0u);
  const AuditReport report = conservation_report(w);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- batching efficiency ----------------------------------------------------

TEST(ServiceWorldTest, BatchingReducesWiredQueryTraffic) {
  ScenarioConfig base = tier_scenario(45);
  base.service.open_loop_rate_per_sec = 30.0;
  base.service.hotspot_fraction = 1.0;
  base.hotspot_targets = 1;
  ScenarioConfig batched = base;
  batched.service.batching = true;
  batched.service.batch_window = SimTime::from_ms(200.0);
  batched.service.max_batch = 8;
  World a(base, Protocol::kHlsrg);
  World b(batched, Protocol::kHlsrg);
  a.run_until(base.end_time());
  b.run_until(batched.end_time());
  EXPECT_GT(b.metrics().batched_queries, 0u);
  EXPECT_GT(b.metrics().batch_flushes, 0u);
  // Each flush carried >= 1 query, each held query saved a wired message.
  EXPECT_GE(b.metrics().batched_queries, b.metrics().batch_flushes);
}

// --- ServiceStats across protocols ------------------------------------------

TEST(ServiceStatsTest, EveryProtocolReportsTableOccupancy) {
  ScenarioConfig cfg = paper_scenario(100, 5);
  cfg.map.size_m = 1000.0;
  cfg.query_window = SimTime::from_sec(10.0);
  cfg.grace = SimTime::from_sec(10.0);
  for (const Protocol p : {Protocol::kHlsrg, Protocol::kRlsmp}) {
    World w(cfg, p);
    w.run_until(cfg.warmup + SimTime::from_sec(5.0));
    EXPECT_GT(w.service().service_stats().table_records, 0u)
        << "protocol " << static_cast<int>(p);
  }
}

}  // namespace
}  // namespace hlsrg
