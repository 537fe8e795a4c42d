// Tests for the observability subsystem: span trees, the metrics registry
// (histogram quantile math in particular), the Chrome-trace exporter, and
// the trace memory caps.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "harness/runner.h"
#include "harness/world.h"
#include "report/json.h"
#include "report/run_report.h"
#include "trace/chrome_trace.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace hlsrg {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketIndexEdges) {
  // Bucket 0 takes v <= 0; bucket i >= 1 covers [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_index(-5), 0);
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lo(i)), i) << i;
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_hi(i)), i) << i;
  }
}

TEST(HistogramTest, EmptyAndSingleSample) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.record(1234);
  // Any quantile of one sample is that sample (clamped to [min, max]).
  EXPECT_EQ(h.quantile(0.0), 1234.0);
  EXPECT_EQ(h.quantile(0.5), 1234.0);
  EXPECT_EQ(h.quantile(1.0), 1234.0);
  EXPECT_EQ(h.mean(), 1234.0);
}

TEST(HistogramTest, QuantilesBracketedByBuckets) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(v);
  // Exact values are interpolated inside power-of-two buckets; require the
  // right bucket, not the exact rank.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1023.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);  // clamped to observed max
  EXPECT_EQ(h.quantile(1.0), 1000.0);
  EXPECT_EQ(h.quantile(0.0), 1.0);
  // Monotone in q.
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double cur = h.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(HistogramTest, MergeMatchesPooledRecording) {
  Histogram a, b, pooled;
  for (int v = 1; v <= 100; ++v) {
    a.record(v);
    pooled.record(v);
  }
  for (int v = 500; v <= 600; ++v) {
    b.record(v);
    pooled.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_EQ(a.sum(), pooled.sum());
  EXPECT_EQ(a.min(), pooled.min());
  EXPECT_EQ(a.max(), pooled.max());
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket_count(i), pooled.bucket_count(i)) << i;
  }
  EXPECT_EQ(a.quantile(0.95), pooled.quantile(0.95));
}

TEST(MetricsRegistryTest, MergeSemantics) {
  MetricsRegistry a, b;
  a.add("x.count", 2);
  b.add("x.count", 3);
  a.histogram("x.h")->record(10);
  b.histogram("x.h")->record(20);
  a.sample("x.s", 1.0, 5.0);
  b.sample("x.s", 1.0, 9.0);
  a.merge(b);
  EXPECT_EQ(a.counters().at("x.count"), 5u);
  EXPECT_EQ(a.histograms().at("x.h").count(), 2u);  // pooled
  EXPECT_EQ(a.series().at("x.s").values.size(), 1u);  // first replica kept
  EXPECT_EQ(a.series().at("x.s").values[0], 5.0);
}

TEST(MetricsRegistryTest, JsonShape) {
  MetricsRegistry reg;
  reg.add("a.count", 7);
  reg.histogram("a.delay_us")->record(100);
  reg.sample("a.series", 5.0, 3.0);
  const JsonValue v = registry_to_json(reg);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("counters").at("a.count").as_uint64(), 7u);
  EXPECT_FALSE(v.contains("gauges"));
  const JsonValue& h = v.at("histograms").at("a.delay_us");
  EXPECT_EQ(h.at("count").as_uint64(), 1u);
  EXPECT_EQ(h.at("p50").as_double(), 100.0);
  EXPECT_EQ(h.at("p99").as_double(), 100.0);
  EXPECT_EQ(v.at("series").at("a.series").at("t_sec").size(), 1u);
}

// ---------------------------------------------------------------------------
// TraceLog span mechanics
// ---------------------------------------------------------------------------

TEST(SpanLogTest, EndSpanIsIdempotent) {
  TraceLog log;
  Span s;
  s.kind = SpanKind::kGpsrRoute;
  s.query_id = 3;
  const SpanId id = log.begin_span(s, SimTime::from_sec(1.0));
  ASSERT_NE(id, kNoSpan);
  log.end_span(id, SimTime::from_sec(2.0), SpanStatus::kOk, Vec2{}, 4);
  // A later settle sweep must not relabel the self-closed leg.
  log.end_open_spans_for_query(id, SimTime::from_sec(9.0), SpanStatus::kFailed);
  const Span* got = log.span(id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->status, SpanStatus::kOk);
  EXPECT_EQ(got->end, SimTime::from_sec(2.0));
  EXPECT_EQ(got->value, 4);
}

TEST(SpanLogTest, SettleSweepClosesOpenSpansOfQuery) {
  TraceLog log;
  Span root;
  root.kind = SpanKind::kQuery;
  root.query_id = 7;
  const SpanId r = log.begin_span(root, SimTime::from_sec(0.0));
  Span leg;
  leg.kind = SpanKind::kAckLeg;
  leg.parent = r;
  leg.query_id = 7;
  const SpanId l = log.begin_span(leg, SimTime::from_sec(0.5));
  Span unrelated;
  unrelated.kind = SpanKind::kRadioHop;  // transport: query_id stays kNoQuery
  const SpanId u = log.begin_span(unrelated, SimTime::from_sec(0.6));
  // A query whose root the cap dropped has no spans to close.
  log.end_open_spans_for_query(kNoSpan, SimTime::from_sec(1.0),
                               SpanStatus::kFailed);
  EXPECT_EQ(log.span(r)->status, SpanStatus::kOpen);
  log.end_open_spans_for_query(r, SimTime::from_sec(2.0), SpanStatus::kOk);
  EXPECT_EQ(log.span(r)->status, SpanStatus::kOk);
  EXPECT_EQ(log.span(l)->status, SpanStatus::kOk);
  EXPECT_EQ(log.span(l)->end, SimTime::from_sec(2.0));
  EXPECT_EQ(log.span(u)->status, SpanStatus::kOpen);  // untouched
}

TEST(SpanLogTest, CapCountsDroppedSpans) {
  TraceLog log;
  log.set_capacity(1);
  for (int i = 0; i < 5; ++i) {
    Span s;
    s.kind = SpanKind::kUpdate;
    log.begin_span(s, SimTime{});
  }
  EXPECT_EQ(log.span_count(), 1u);
  EXPECT_EQ(log.dropped_spans(), 4u);
}

TEST(SpanLogTest, SpanTreeTextUsesDotDecimalSeparator) {
  TraceLog log;
  Span s;
  s.kind = SpanKind::kAckLeg;
  s.subject = 4;
  s.query_id = 9;
  const SpanId id = log.begin_span(s, SimTime::from_ms(1500));
  log.end_span(id, SimTime::from_ms(2250), SpanStatus::kOk);
  EXPECT_EQ(log.span_tree_text(),
            "ack_leg [ok] 1.500000s -> 2.250000s subject=4 query=9\n");
}

// ---------------------------------------------------------------------------
// End-to-end span reconstruction from a real run
// ---------------------------------------------------------------------------

class SpanRunTest : public ::testing::Test {
 protected:
  static void run(Protocol protocol, TraceLog* trace, RunMetrics* metrics) {
    ScenarioConfig cfg = paper_scenario(200, 71);
    World world(cfg, protocol);
    world.attach_trace(trace);
    *metrics = world.run();
  }

  static void check_invariants(const TraceLog& trace,
                               const RunMetrics& metrics) {
    std::size_t roots = 0;
    std::set<std::uint32_t> settled_queries;
    for (const Span& s : trace.spans()) {
      // Ids are record order.
      EXPECT_EQ(s.id, &s - trace.spans().data() + 1u);
      // Parents exist and began no later than the child.
      if (s.parent != kNoSpan) {
        const Span* p = trace.span(s.parent);
        ASSERT_NE(p, nullptr);
        EXPECT_LE(p->begin, s.begin);
      }
      // Every settled span has a nonnegative duration.
      if (s.status != SpanStatus::kOpen) {
        EXPECT_GE(s.end, s.begin);
      }
      if (s.kind == SpanKind::kQuery) {
        ++roots;
        EXPECT_EQ(s.parent, kNoSpan);
        EXPECT_NE(s.query_id, kNoQuery);
        // Queries all settle within the grace window.
        EXPECT_NE(s.status, SpanStatus::kOpen);
        settled_queries.insert(s.query_id);
      }
    }
    EXPECT_EQ(roots, metrics.queries_issued);
    EXPECT_EQ(settled_queries.size(), metrics.queries_issued);

    // Each query tree contains its root, and children_of agrees with the
    // parent links.
    for (const Span& s : trace.spans()) {
      if (s.kind != SpanKind::kQuery) continue;
      const auto tree = trace.spans_for_query(s.query_id);
      ASSERT_FALSE(tree.empty());
      EXPECT_EQ(tree.front().id, s.id);
      for (const Span& child : trace.children_of(s.id)) {
        EXPECT_EQ(child.parent, s.id);
      }
    }
  }
};

TEST_F(SpanRunTest, HlsrgSpanTreeInvariants) {
  TraceLog trace;
  RunMetrics metrics;
  run(Protocol::kHlsrg, &trace, &metrics);
  ASSERT_GT(trace.span_count(), 0u);
  check_invariants(trace, metrics);
  // The HLSRG run exercises every span kind we instrument somewhere.
  std::set<SpanKind> kinds;
  for (const Span& s : trace.spans()) kinds.insert(s.kind);
  EXPECT_TRUE(kinds.count(SpanKind::kQuery));
  EXPECT_TRUE(kinds.count(SpanKind::kUpdate));
  EXPECT_TRUE(kinds.count(SpanKind::kGpsrRoute));
  EXPECT_TRUE(kinds.count(SpanKind::kRadioHop));
  EXPECT_TRUE(kinds.count(SpanKind::kTableLookup));
  // The text dump mentions the roots.
  const std::string text = trace.span_tree_text();
  EXPECT_NE(text.find("query"), std::string::npos);
}

TEST_F(SpanRunTest, RlsmpAndFloodSpanTreeInvariants) {
  for (Protocol protocol : {Protocol::kRlsmp, Protocol::kFlood}) {
    TraceLog trace;
    RunMetrics metrics;
    run(protocol, &trace, &metrics);
    ASSERT_GT(trace.span_count(), 0u) << protocol_name(protocol);
    check_invariants(trace, metrics);
  }
}

TEST_F(SpanRunTest, QueryDelayLivesOnlyInLatencyStat) {
  ScenarioConfig cfg = paper_scenario(200, 72);
  World world(cfg, Protocol::kHlsrg);
  const RunMetrics& m = world.run();
  // One percentile path: the delay is recorded once, in LatencyStat, with
  // one sample per success; the registry carries no copy of it.
  EXPECT_EQ(m.query_latency.count(), m.queries_succeeded);
  const auto& hists = world.sim().observability().histograms();
  EXPECT_FALSE(hists.count("query.delay_us"));
  // Route-hop histograms, which nothing else records, populate.
  ASSERT_TRUE(hists.count("gpsr.route_hops"));
  EXPECT_GT(hists.at("gpsr.route_hops").count(), 0u);
}

TEST_F(SpanRunTest, WorldSamplerRecordsTimeSeries) {
  ScenarioConfig cfg = paper_scenario(150, 73);
  cfg.sample_interval = SimTime::from_sec(10.0);
  World world(cfg, Protocol::kHlsrg);
  world.run();
  const auto& series = world.sim().observability().series();
  ASSERT_TRUE(series.count("world.live_queries"));
  ASSERT_TRUE(series.count("world.table_records"));
  const TimeSeries& records = series.at("world.table_records");
  const std::size_t expected =
      static_cast<std::size_t>(cfg.end_time().sec() / 10.0);
  EXPECT_GE(records.values.size() + 1, expected);  // ties at the horizon
  EXPECT_EQ(records.values.size(), records.times_sec.size());
  // Tables fill up once updates start flowing.
  EXPECT_GT(records.values.back(), 0.0);
}

// ---------------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------------

TEST(ChromeTraceTest, DocumentRoundTripsThroughJsonParser) {
  TraceLog trace;
  RunMetrics metrics;
  {
    ScenarioConfig cfg = paper_scenario(150, 74);
    World world(cfg, Protocol::kHlsrg);
    world.attach_trace(&trace);
    metrics = world.run();
  }
  const std::vector<WallSpan> wall = {WallSpan{"build", 0, 0.0, 0.5},
                                      WallSpan{"run", 0, 0.5, 2.0}};
  const JsonValue doc = chrome_trace_document(trace, wall);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

  // Well-formedness: the serialized document parses back and the traceEvents
  // array is shaped like the Chrome trace-event format.
  std::string error;
  const auto parsed = JsonValue::parse(doc.dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue& events = parsed->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.size(), 0u);
  bool saw_complete = false, saw_meta = false, saw_engine = false;
  for (const JsonValue& e : events.items()) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.at("ph").as_string();
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
    EXPECT_TRUE(e.contains("pid"));
    // Everything but process-level metadata sits on a thread track.
    if (ph != "M" || e.at("name").as_string() == "thread_name") {
      EXPECT_TRUE(e.contains("tid"));
    }
    if (ph == "X") {
      EXPECT_GE(e.at("dur").as_double(), 0.0);
      saw_complete = true;
      if (e.at("pid").as_int() == 2) saw_engine = true;
    }
    if (ph == "M") saw_meta = true;
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_engine);
}

TEST(ChromeTraceTest, ProtocolEventsAreInstantSpans) {
  TraceLog trace;
  {
    ScenarioConfig cfg = paper_scenario(150, 74);
    World world(cfg, Protocol::kHlsrg);
    world.attach_trace(&trace);
    world.run_until(SimTime::from_sec(150));
  }
  const JsonValue doc = chrome_trace_document(trace, {});
  std::set<std::string> instants;
  for (const JsonValue& e : doc.at("traceEvents").items()) {
    // One trace stream: every simulated-time entry is a span.
    if (e.at("ph").as_string() == "M") continue;
    EXPECT_EQ(e.at("cat").as_string(), "span");
    if (e.at("ph").as_string() == "i") {
      instants.insert(e.at("name").as_string());
    }
  }
  for (const char* kind : {"update", "table_handoff", "table_push"}) {
    EXPECT_TRUE(instants.count(kind)) << kind;
  }
}

TEST(ChromeTraceTest, WriteChromeTraceProducesParsableFile) {
  TraceLog trace;
  Span s;
  s.kind = SpanKind::kQuery;
  s.query_id = 0;
  const SpanId id = trace.begin_span(s, SimTime::from_sec(1.0));
  trace.end_span(id, SimTime::from_sec(1.5), SpanStatus::kOk);
  const std::string path = ::testing::TempDir() + "/chrome_trace_test.json";
  std::string error;
  ASSERT_TRUE(write_chrome_trace(trace, {}, path, &error)) << error;
  const auto loaded = read_json_file(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->at("traceEvents").is_array());
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

TEST(ObservabilityReportTest, RunReportCarriesObservabilityAndPercentiles) {
  ScenarioConfig cfg = paper_scenario(150, 75);
  const ReplicaSet set = run_replicas(cfg, Protocol::kHlsrg, 2, 2);
  EXPECT_EQ(set.phases.size(), 6u);  // build/run/digest per replica
  for (const EnginePhase& p : set.phases) {
    EXPECT_GE(p.end_sec, p.begin_sec);
  }

  Directions directions;
  JsonValue doc = run_report_json(protocol_name(Protocol::kHlsrg), cfg,
                                  set.merged, set.engine_total, directions);
  doc.set("observability", registry_to_json(set.observability));
  // The registry carries no mirror of a RunMetrics figure: no gauges, and
  // no second copy of the query delay.
  const JsonValue& obs = doc.at("observability");
  EXPECT_FALSE(obs.contains("gauges"));
  EXPECT_FALSE(obs.at("histograms").contains("query.delay_us"));
  EXPECT_TRUE(obs.at("histograms").contains("gpsr.route_hops"));
  EXPECT_DOUBLE_EQ(doc.at("latency").at("p90_ms").as_double(),
                   set.merged.query_latency.p90_ms());
  EXPECT_EQ(doc.at("latency").at("count").as_uint64(),
            set.merged.queries_succeeded);
  EXPECT_TRUE(doc.at("engine").contains("trace_spans_dropped"));

  // Derived metrics expose the delay percentiles the figures want.
  const JsonValue derived =
      derived_metrics_json(set.merged, false, 2, directions);
  for (const char* key : {"query_delay_p50_ms", "query_delay_p90_ms",
                          "query_delay_p95_ms", "query_delay_p99_ms"}) {
    ASSERT_TRUE(derived.contains(key)) << key;
    EXPECT_GE(derived.at(key).as_double(), 0.0);
    EXPECT_EQ(directions.json().at("derived").at(key).as_string(), "lower");
  }
}

}  // namespace
}  // namespace hlsrg
