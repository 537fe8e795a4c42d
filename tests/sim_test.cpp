// Tests for sim: time, event queue, RNG, metrics accumulators.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/counters.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace hlsrg {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(SimTime::from_sec(1.5).us(), 1'500'000);
  EXPECT_EQ(SimTime::from_ms(2.5).us(), 2'500);
  EXPECT_EQ(SimTime::from_min(1.0).us(), 60'000'000);
  EXPECT_DOUBLE_EQ(SimTime::from_us(250).ms(), 0.25);
  EXPECT_DOUBLE_EQ(SimTime::from_us(1'000'000).sec(), 1.0);
}

TEST(SimTimeTest, ArithmeticAndComparison) {
  const SimTime a = SimTime::from_sec(1.0);
  const SimTime b = SimTime::from_sec(2.0);
  EXPECT_LT(a, b);
  EXPECT_EQ((a + b).sec(), 3.0);
  EXPECT_EQ((b - a).sec(), 1.0);
  SimTime c = a;
  c += b;
  EXPECT_EQ(c.sec(), 3.0);
}

// --- EventQueue -----------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime::from_sec(3), [&] { order.push_back(3); });
  q.schedule_at(SimTime::from_sec(1), [&] { order.push_back(1); });
  q.schedule_at(SimTime::from_sec(2), [&] { order.push_back(2); });
  q.run_until(SimTime::from_sec(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesRunFifo) {
  EventQueue q;
  std::vector<int> order;
  const SimTime t = SimTime::from_sec(1);
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  q.run_until(t);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, ClockAdvancesToEventTime) {
  EventQueue q;
  SimTime seen;
  q.schedule_at(SimTime::from_sec(5), [&] { seen = q.now(); });
  q.run_until(SimTime::from_sec(10));
  EXPECT_EQ(seen, SimTime::from_sec(5));
  EXPECT_EQ(q.now(), SimTime::from_sec(10));
}

TEST(EventQueueTest, RunUntilExcludesLaterEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(SimTime::from_sec(1), [&] { ++fired; });
  q.schedule_at(SimTime::from_sec(2), [&] { ++fired; });
  q.schedule_at(SimTime::from_sec(3), [&] { ++fired; });
  EXPECT_EQ(q.run_until(SimTime::from_sec(2)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      q.schedule_at(q.now() + SimTime::from_sec(1), chain);
    }
  };
  q.schedule_at(SimTime::from_sec(1), chain);
  q.run_until(SimTime::from_sec(100));
  EXPECT_EQ(depth, 5);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.schedule_at(SimTime::from_sec(1), [&] { ++fired; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));  // second cancel is a no-op
  q.run_until(SimTime::from_sec(2));
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventHandle h = q.schedule_at(SimTime::from_sec(1), [] {});
  q.run_until(SimTime::from_sec(2));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueueTest, DefaultHandleIsInvalid) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventHandle{}));
}

TEST(EventQueueTest, SizeAndEmptyTrackCancellations) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EventHandle h1 = q.schedule_at(SimTime::from_sec(1), [] {});
  q.schedule_at(SimTime::from_sec(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(h1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime::from_sec(2));
}

TEST(EventQueueTest, NextTimeOnEmptyIsMax) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::max());
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(5.0, 6.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, UniformU64IsRoughlyUniform) {
  Rng rng(11);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) buckets[rng.uniform_u64(10)]++;
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 10 * 0.15);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(3);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(RngTest, SplitStreamsAreIndependentOfEachOther) {
  // Drawing from one split stream must not change another's sequence.
  Rng root1(5);
  Rng a1 = root1.split(1);
  Rng b1 = root1.split(2);
  const auto b1_first = b1.next();

  Rng root2(5);
  Rng a2 = root2.split(1);
  Rng b2 = root2.split(2);
  for (int i = 0; i < 50; ++i) a2.next();  // extra draws on a2 only
  EXPECT_EQ(b2.next(), b1_first);
  (void)a1;
}

TEST(RngTest, WorksWithStdDistributions) {
  Rng rng(9);
  std::uniform_int_distribution<int> dist(1, 6);
  for (int i = 0; i < 100; ++i) {
    const int v = dist(rng);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
  }
}

// --- LatencyStat / RunMetrics -----------------------------------------------

TEST(LatencyStatTest, TracksCountMeanMinMax) {
  LatencyStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean_ms(), 0.0);
  s.add(SimTime::from_ms(10));
  s.add(SimTime::from_ms(30));
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean_ms(), 20.0);
  EXPECT_DOUBLE_EQ(s.min_ms(), 10.0);
  EXPECT_DOUBLE_EQ(s.max_ms(), 30.0);
}

TEST(LatencyStatTest, MergePoolsSamples) {
  LatencyStat a, b;
  a.add(SimTime::from_ms(10));
  b.add(SimTime::from_ms(50));
  b.add(SimTime::from_ms(30));
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean_ms(), 30.0);
  EXPECT_DOUBLE_EQ(a.min_ms(), 10.0);
  EXPECT_DOUBLE_EQ(a.max_ms(), 50.0);
}

TEST(LatencyStatTest, MergeIntoEmpty) {
  LatencyStat a, b;
  b.add(SimTime::from_ms(5));
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean_ms(), 5.0);
}

TEST(LatencyStatTest, MergeIsAssociative) {
  // (a ∪ b) ∪ c must equal a ∪ (b ∪ c) in every statistic, including
  // percentiles over the pooled sample set.
  LatencyStat a, b, c;
  for (const int ms : {40, 10}) a.add(SimTime::from_ms(ms));
  for (const int ms : {90, 20, 70}) b.add(SimTime::from_ms(ms));
  c.add(SimTime::from_ms(60));

  LatencyStat left = a;   // (a+b)+c
  left.merge(b);
  left.merge(c);
  LatencyStat bc = b;     // a+(b+c)
  bc.merge(c);
  LatencyStat right = a;
  right.merge(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_DOUBLE_EQ(left.mean_ms(), right.mean_ms());
  EXPECT_DOUBLE_EQ(left.min_ms(), right.min_ms());
  EXPECT_DOUBLE_EQ(left.max_ms(), right.max_ms());
  for (const double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(left.percentile_ms(q), right.percentile_ms(q)) << q;
  }
}

TEST(LatencyStatTest, PercentileOfEmptyIsZero) {
  const LatencyStat s;
  EXPECT_DOUBLE_EQ(s.percentile_ms(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile_ms(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile_ms(1.0), 0.0);
}

TEST(LatencyStatTest, PercentileSingleSample) {
  LatencyStat s;
  s.add(SimTime::from_ms(42));
  // With one sample, every quantile is that sample.
  EXPECT_DOUBLE_EQ(s.percentile_ms(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile_ms(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile_ms(0.99), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile_ms(1.0), 42.0);
}

TEST(LatencyStatTest, PercentileEndpointsAreMinAndMax) {
  LatencyStat s;
  for (const int ms : {70, 10, 30, 50, 90}) s.add(SimTime::from_ms(ms));
  EXPECT_DOUBLE_EQ(s.percentile_ms(0.0), s.min_ms());
  EXPECT_DOUBLE_EQ(s.percentile_ms(1.0), s.max_ms());
  // Nearest-rank median of {10,30,50,70,90}.
  EXPECT_DOUBLE_EQ(s.percentile_ms(0.5), 50.0);
}

TEST(EngineStatsTest, MergeSumsCountsAndMaxesPeakDepth) {
  EngineStats a, b;
  a.events_processed = 100;
  a.events_scheduled = 120;
  a.peak_queue_depth = 40;
  a.sim_time_sec = 150.0;
  a.wall_clock_sec = 0.5;
  b.events_processed = 300;
  b.events_scheduled = 310;
  b.peak_queue_depth = 25;
  b.sim_time_sec = 150.0;
  b.wall_clock_sec = 1.5;
  a.merge(b);
  EXPECT_EQ(a.events_processed, 400u);
  EXPECT_EQ(a.events_scheduled, 430u);
  EXPECT_EQ(a.peak_queue_depth, 40u);  // max, not sum
  EXPECT_DOUBLE_EQ(a.sim_time_sec, 300.0);
  EXPECT_DOUBLE_EQ(a.wall_clock_sec, 2.0);
  EXPECT_DOUBLE_EQ(a.events_per_sec(), 200.0);
}

TEST(EngineStatsTest, EventsPerSecZeroWithoutWallClock) {
  EngineStats s;
  s.events_processed = 1000;
  EXPECT_DOUBLE_EQ(s.events_per_sec(), 0.0);
}

TEST(EventQueueTest, TracksDispatchAndPeakDepthCounters) {
  EventQueue q;
  q.schedule_at(SimTime::from_sec(1), [] {});
  q.schedule_at(SimTime::from_sec(2), [] {});
  q.schedule_at(SimTime::from_sec(3), [] {});
  EXPECT_EQ(q.events_scheduled(), 3u);
  EXPECT_EQ(q.peak_depth(), 3u);
  EXPECT_EQ(q.events_dispatched(), 0u);
  q.run_until(SimTime::from_sec(10));
  EXPECT_EQ(q.events_dispatched(), 3u);
  EXPECT_EQ(q.peak_depth(), 3u);  // high-water mark survives the drain
}

TEST(RunMetricsTest, MergeSumsCounters) {
  RunMetrics a, b;
  a.update_packets_originated = 10;
  a.queries_issued = 2;
  b.update_packets_originated = 5;
  b.queries_issued = 3;
  b.queries_succeeded = 1;
  a.merge(b);
  EXPECT_EQ(a.update_packets_originated, 15u);
  EXPECT_EQ(a.queries_issued, 5u);
  EXPECT_EQ(a.queries_succeeded, 1u);
}

TEST(RunMetricsTest, SuccessRate) {
  RunMetrics m;
  EXPECT_DOUBLE_EQ(m.success_rate(), 0.0);
  m.queries_issued = 4;
  m.queries_succeeded = 3;
  EXPECT_DOUBLE_EQ(m.success_rate(), 0.75);
}

TEST(EventQueueTest, RunOneOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.run_one());
  q.schedule_at(SimTime::from_sec(1), [] {});
  EXPECT_TRUE(q.run_one());
  EXPECT_FALSE(q.run_one());
}

// Property: random interleavings of schedule/cancel keep the queue honest —
// every scheduled event either fires exactly once or was cancelled exactly
// once, never both.
class QueueCancelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueCancelProperty, FireXorCancel) {
  Rng rng(GetParam());
  EventQueue q;
  int fired = 0;
  int cancelled = 0;
  std::vector<EventHandle> handles;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    handles.push_back(q.schedule_at(
        SimTime::from_us(rng.uniform_int(1, 100000)), [&fired] { ++fired; }));
  }
  for (const EventHandle& h : handles) {
    if (rng.chance(0.4) && q.cancel(h)) ++cancelled;
  }
  q.run_until(SimTime::from_sec(10));
  EXPECT_EQ(fired + cancelled, n);
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueCancelProperty,
                         ::testing::Values(5u, 55u, 555u));

// --- Simulator -----------------------------------------------------------------

TEST(SimulatorTest, StreamsAreStablePerSeed) {
  Simulator a(99), b(99);
  EXPECT_EQ(a.mobility_rng().next(), b.mobility_rng().next());
  EXPECT_EQ(a.radio_rng().next(), b.radio_rng().next());
  EXPECT_EQ(a.protocol_rng().next(), b.protocol_rng().next());
  EXPECT_EQ(a.workload_rng().next(), b.workload_rng().next());
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim(1);
  SimTime fired;
  sim.schedule_after(SimTime::from_sec(2), [&] {
    sim.schedule_after(SimTime::from_sec(3), [&] { fired = sim.now(); });
  });
  sim.run_until(SimTime::from_sec(10));
  EXPECT_EQ(fired, SimTime::from_sec(5));
}

// Determinism property: identical seeds give identical event interleavings.
class QueueDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueDeterminism, RandomWorkloadsReplayExactly) {
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<std::uint64_t> trace;
    std::function<void(int)> spawn = [&](int depth) {
      trace.push_back(q.now().us() ^ static_cast<std::uint64_t>(depth));
      if (depth >= 6) return;
      const int children = static_cast<int>(rng.uniform_int(0, 2));
      for (int c = 0; c < children; ++c) {
        q.schedule_at(q.now() + SimTime::from_us(rng.uniform_int(1, 1000)),
                      [&spawn, depth] { spawn(depth + 1); });
      }
    };
    q.schedule_at(SimTime::from_us(1), [&] { spawn(0); });
    q.run_until(SimTime::from_sec(10));
    return trace;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueDeterminism,
                         ::testing::Values(1u, 17u, 123u, 9999u));

}  // namespace
}  // namespace hlsrg
