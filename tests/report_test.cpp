// Tests for the report subsystem: the JSON document model (writer + parser)
// and the run/bench report writers.
#include <gtest/gtest.h>

#include <functional>
#include <type_traits>

#include "fault/fault_plan.h"
#include "report/bench_report.h"
#include "report/json.h"
#include "report/run_report.h"

namespace hlsrg {
namespace {

TEST(JsonTest, ScalarsDump) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(std::uint64_t{1234567890123}).dump(), "1234567890123");
  EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(JsonTest, StringEscaping) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  const auto parsed = JsonValue::parse("\"a\\\"b\\\\c\\nd\\u0041\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\"b\\c\ndA");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndReplaces) {
  JsonValue o = JsonValue::object();
  o.set("b", 1);
  o.set("a", 2);
  o.set("b", 3);  // replace keeps position
  EXPECT_EQ(o.dump(), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(o.at("b").as_int(), 3);
  EXPECT_TRUE(o.at("missing").is_null());
  EXPECT_FALSE(o.contains("missing"));
}

TEST(JsonTest, RoundTripNested) {
  JsonValue o = JsonValue::object();
  o.set("name", "bench");
  o.set("n", 3);
  o.set("ok", true);
  o.set("nothing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back(2.25);
  JsonValue inner = JsonValue::object();
  inner.set("x", -7);
  arr.push_back(std::move(inner));
  o.set("items", std::move(arr));

  for (const int indent : {0, 2}) {
    const std::string text = o.dump(indent);
    std::string error;
    const auto parsed = JsonValue::parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->dump(), o.dump());
  }
}

TEST(JsonTest, ParseErrors) {
  std::string error;
  EXPECT_FALSE(JsonValue::parse("", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("{", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":}", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("[1,]", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("123 456", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("tru", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, ParseAcceptsWhitespaceAndNumbers) {
  const auto v = JsonValue::parse(" { \"a\" : [ -1.5e2 , 0 ] } ");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->at("a").items()[0].as_double(), -150.0);
  EXPECT_DOUBLE_EQ(v->at("a").items()[1].as_double(), 0.0);
}

RunMetrics sample_metrics() {
  RunMetrics m;
  m.update_packets_originated = 553;
  m.update_transmissions = 1200;
  m.aggregation_packets = 77;
  m.queries_issued = 30;
  m.queries_succeeded = 24;
  m.queries_failed = 6;
  m.query_transmissions = 2055;
  m.wired_messages = 140;
  m.query_latency.add(SimTime::from_ms(120.0));
  m.query_latency.add(SimTime::from_ms(80.0));
  m.query_latency.add(SimTime::from_ms(500.0));
  return m;
}

// The field tables of sim/counters.h drive merge, the report JSON and the
// directions block: every field, set to its own value, is written under its
// name, merges by its rule, and carries a direction.
TEST(RunReportTest, FieldTablesDriveMergeJsonAndDirections) {
  RunMetrics a, b;
  std::uint64_t next = 1;
  RunMetrics::for_each_field(
      [&](const MetricSpec&, std::uint64_t RunMetrics::*field) {
        a.*field = next;
        b.*field = 1000 + next;
        ++next;
      });
  RunMetrics merged = a;
  merged.merge(b);
  Directions directions;
  const JsonValue metrics = metrics_to_json(a, directions);
  std::size_t fields = 0;
  RunMetrics::for_each_field(
      [&](const MetricSpec& spec, std::uint64_t RunMetrics::*field) {
        ++fields;
        EXPECT_EQ(metrics.at(spec.name).as_uint64(), a.*field) << spec.name;
        const std::uint64_t want =
            spec.merge == MergeRule::kMax ? b.*field : a.*field + b.*field;
        EXPECT_EQ(merged.*field, want) << spec.name;
        EXPECT_TRUE(directions.json().at("metrics").at(spec.name).is_string())
            << spec.name;
      });
  EXPECT_EQ(metrics.size(), fields);  // no key outside the table

  EngineStats x, y;
  double value = 1.0;
  EngineStats::for_each_key([&](const EngineSpec&, auto key) {
    if constexpr (std::is_member_object_pointer_v<decltype(key)>) {
      using T = std::remove_reference_t<decltype(x.*key)>;
      x.*key = static_cast<T>(value);
      y.*key = static_cast<T>(1000.0 + value);
      value += 1.0;
    }
  });
  EngineStats total = x;
  total.merge(y);
  const JsonValue engine = engine_to_json(x, directions);
  std::size_t keys = 0;
  EngineStats::for_each_key([&](const EngineSpec& spec, auto key) {
    ++keys;
    EXPECT_DOUBLE_EQ(engine.at(spec.name).as_double(),
                     static_cast<double>(std::invoke(key, x)))
        << spec.name;
    if constexpr (std::is_member_object_pointer_v<decltype(key)>) {
      const auto want =
          spec.merge == MergeRule::kMax ? y.*key : x.*key + y.*key;
      EXPECT_EQ(total.*key, want) << spec.name;
    } else {
      EXPECT_EQ(spec.merge, MergeRule::kDerived) << spec.name;
    }
    const char* group = spec.gate == EngineGate::kTiming   ? "timing"
                        : spec.gate == EngineGate::kMemory ? "memory"
                                                           : "engine";
    EXPECT_TRUE(directions.json().at(group).at(spec.name).is_string())
        << spec.name;
  });
  EXPECT_EQ(engine.size(), keys);
}

TEST(RunReportTest, JsonRoundTripFieldEquality) {
  ScenarioConfig cfg = paper_scenario(450, 77);
  cfg.map.irregular = true;
  cfg.partition.target_size = 400.0;
  cfg.radio.range_m = 450.0;
  cfg.source_fraction = 0.2;
  cfg.hotspot_targets = 7;
  cfg.service.open_loop_rate_per_sec = 2.5;
  cfg.service.hotspot_fraction = 1.0;
  cfg.warmup = SimTime::from_sec(45.0);
  cfg.query_window = SimTime::from_sec(20.0);
  cfg.grace = SimTime::from_sec(30.0);
  cfg.mobility.parked_fraction = 0.25;
  cfg.hlsrg.use_rsus = false;
  cfg.hlsrg.suppress_artery_updates = false;
  cfg.hlsrg.l1_expiry = SimTime::from_sec(90.0);

  EngineStats engine;
  engine.events_processed = 46121;
  engine.events_scheduled = 46504;
  engine.peak_queue_depth = 930;
  engine.sim_time_sec = 150.0;
  engine.wall_clock_sec = 0.0625;
  engine.peak_rss_bytes = 123456789;
  engine.table_bytes = 424242;

  const RunMetrics metrics = sample_metrics();
  Directions directions;
  // Write, serialize, re-parse the text, and compare every field with the
  // value it was written from.
  std::string error;
  const auto doc = JsonValue::parse(
      run_report_json("HLSRG", cfg, metrics, engine, directions).dump(2),
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->at("protocol").as_string(), "HLSRG");

  // Scenario config subset.
  const JsonValue& c = doc->at("config");
  EXPECT_EQ(c.at("seed").as_uint64(), cfg.seed);
  EXPECT_EQ(c.at("vehicles").as_int(), cfg.vehicles);
  EXPECT_DOUBLE_EQ(c.at("map_size_m").as_double(), cfg.map.size_m);
  EXPECT_EQ(c.at("map_irregular").as_bool(), cfg.map.irregular);
  EXPECT_DOUBLE_EQ(c.at("partition_target_m").as_double(),
                   cfg.partition.target_size);
  EXPECT_DOUBLE_EQ(c.at("radio_range_m").as_double(), cfg.radio.range_m);
  EXPECT_DOUBLE_EQ(c.at("source_fraction").as_double(), cfg.source_fraction);
  EXPECT_EQ(c.at("hotspot_targets").as_int(), cfg.hotspot_targets);
  EXPECT_DOUBLE_EQ(c.at("open_loop_rate_per_sec").as_double(),
                   cfg.service.open_loop_rate_per_sec);
  EXPECT_DOUBLE_EQ(c.at("hotspot_fraction").as_double(),
                   cfg.service.hotspot_fraction);
  EXPECT_DOUBLE_EQ(c.at("warmup_sec").as_double(), cfg.warmup.sec());
  EXPECT_DOUBLE_EQ(c.at("query_window_sec").as_double(),
                   cfg.query_window.sec());
  EXPECT_DOUBLE_EQ(c.at("grace_sec").as_double(), cfg.grace.sec());
  EXPECT_DOUBLE_EQ(c.at("parked_fraction").as_double(),
                   cfg.mobility.parked_fraction);
  EXPECT_EQ(c.at("use_rsus").as_bool(), cfg.hlsrg.use_rsus);
  EXPECT_EQ(c.at("suppress_artery_updates").as_bool(),
            cfg.hlsrg.suppress_artery_updates);
  EXPECT_DOUBLE_EQ(c.at("l1_expiry_sec").as_double(),
                   cfg.hlsrg.l1_expiry.sec());

  // Counters are exact integers.
  EXPECT_EQ(doc->at("metrics").at("query_transmissions").as_uint64(), 2055u);

  // Latency digest, written straight from the LatencyStat.
  const JsonValue& l = doc->at("latency");
  const LatencyStat& stat = metrics.query_latency;
  EXPECT_EQ(l.at("count").as_uint64(), stat.count());
  EXPECT_DOUBLE_EQ(l.at("mean_ms").as_double(), stat.mean_ms());
  EXPECT_DOUBLE_EQ(l.at("min_ms").as_double(), stat.min_ms());
  EXPECT_DOUBLE_EQ(l.at("max_ms").as_double(), stat.max_ms());
  EXPECT_DOUBLE_EQ(l.at("p50_ms").as_double(), stat.p50_ms());
  EXPECT_DOUBLE_EQ(l.at("p90_ms").as_double(), stat.p90_ms());
  EXPECT_DOUBLE_EQ(l.at("p95_ms").as_double(), stat.p95_ms());
  EXPECT_DOUBLE_EQ(l.at("p99_ms").as_double(), stat.p99_ms());
  for (const auto& [key, v] : l.members()) {
    EXPECT_TRUE(directions.json().at("latency").contains(key)) << key;
  }

  // Engine stats.
  const JsonValue& e = doc->at("engine");
  EXPECT_EQ(e.at("events_processed").as_uint64(), engine.events_processed);
  EXPECT_EQ(e.at("events_scheduled").as_uint64(), engine.events_scheduled);
  EXPECT_EQ(e.at("peak_queue_depth").as_uint64(), engine.peak_queue_depth);
  EXPECT_DOUBLE_EQ(e.at("sim_time_sec").as_double(), engine.sim_time_sec);
  EXPECT_DOUBLE_EQ(e.at("wall_clock_sec").as_double(), engine.wall_clock_sec);
  EXPECT_DOUBLE_EQ(e.at("sim_seconds_per_sec").as_double(),
                   engine.sim_time_sec / 0.0625);
  EXPECT_EQ(e.at("peak_rss_bytes").as_uint64(), engine.peak_rss_bytes);
  EXPECT_EQ(e.at("table_bytes").as_uint64(), engine.table_bytes);
}

TEST(BenchReportTest, SectionsRowsAndResults) {
  BenchReport report("unit_bench", 2);
  report.begin_section("section one", "success");

  ReplicaSet set;
  set.replicas.resize(2);
  set.engine.resize(2);
  set.engine[0].events_processed = 10;
  set.engine[0].wall_clock_sec = 0.5;
  set.engine[1].events_processed = 30;
  set.engine[1].wall_clock_sec = 0.25;
  for (const EngineStats& e : set.engine) set.engine_total.merge(e);
  set.merged = sample_metrics();

  const ScenarioConfig cfg = paper_scenario(300, 9);
  report.add_result("point A", "HLSRG", cfg, set);
  report.add_result("point A", "RLSMP", cfg, set);
  report.add_result("point B", "HLSRG", cfg, set);

  const JsonValue doc = report.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), kBenchSchema);
  EXPECT_EQ(doc.at("bench").as_string(), "unit_bench");
  EXPECT_EQ(doc.at("replicas").as_int(), 2);
  ASSERT_EQ(doc.at("sections").size(), 1u);
  const JsonValue& rows = doc.at("sections").items()[0].at("rows");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.items()[0].at("label").as_string(), "point A");
  EXPECT_EQ(rows.items()[0].at("results").size(), 2u);
  EXPECT_EQ(rows.items()[1].at("results").size(), 1u);

  const JsonValue& first = rows.items()[0].at("results").items()[0];
  EXPECT_EQ(first.at("protocol").as_string(), "HLSRG");
  EXPECT_EQ(first.at("replica_engine").size(), 2u);
  EXPECT_EQ(first.at("engine").at("events_processed").as_uint64(), 40u);
  // Merged-over-2-replicas derived value: 553 update packets / 2.
  EXPECT_DOUBLE_EQ(first.at("derived").at("update_overhead").as_double(),
                   553.0 / 2.0);

  // One directions block for the document, naming the way each key is
  // better, in the group bench_compare.py gates it under.
  const JsonValue& directions = doc.at("directions");
  EXPECT_EQ(directions.at("derived").at("update_overhead").as_string(),
            "lower");
  EXPECT_EQ(directions.at("derived").at("success_rate").as_string(), "higher");
  EXPECT_EQ(directions.at("metrics").at("queries_issued").as_string(),
            "unchanged");
  EXPECT_EQ(directions.at("latency").at("p99_ms").as_string(), "lower");
  EXPECT_EQ(directions.at("engine").at("events_processed").as_string(),
            "unchanged");
  EXPECT_EQ(directions.at("timing").at("sim_seconds_per_sec").as_string(),
            "higher");
  EXPECT_EQ(directions.at("memory").at("peak_rss_bytes").as_string(),
            "lower");

  // The whole document survives a text round trip.
  const auto parsed = JsonValue::parse(doc.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), doc.dump());
}

TEST(FaultPlanReportTest, PlanSurvivesAFileRoundTrip) {
  FaultPlan plan;
  plan.fault_seed = 1234;
  plan.overrides.retry_backoff_base = 2.0;
  FaultWindow w;
  w.kind = FaultKind::kRadioLoss;
  w.begin = SimTime::from_sec(50.0);
  w.end = SimTime::from_sec(85.0);
  w.has_box = true;
  w.box = Aabb{{2000.0, 0.0}, {4000.0, 4000.0}};
  w.extra_loss = 0.5;
  plan.windows.push_back(w);

  const std::string path =
      ::testing::TempDir() + "/hlsrg_fault_plan_roundtrip.json";
  std::string error;
  ASSERT_TRUE(write_json_file(plan.to_json(), path, &error)) << error;
  FaultPlan back;
  ASSERT_TRUE(FaultPlan::load(path, &back, &error)) << error;
  EXPECT_EQ(back.digest(), plan.digest());
  EXPECT_EQ(back.fault_seed, 1234u);
  ASSERT_EQ(back.windows.size(), 1u);
  EXPECT_TRUE(back.windows[0].has_box);
  EXPECT_DOUBLE_EQ(back.windows[0].box.hi.x, 4000.0);
}

TEST(FaultPlanReportTest, RunReportRoundTripsFaultMetrics) {
  ScenarioConfig cfg = paper_scenario(100, 3);
  cfg.fault_plan_file = "plans/chaos.json";
  cfg.fault_seed = 7;
  RunMetrics m;
  m.queries_issued = 10;
  m.wired_drops = 4;
  m.rsu_suppressed = 6;
  m.query_retries = 5;
  m.query_failovers = 2;
  m.queries_stranded = 1;
  m.fault_queries_issued = 8;
  m.fault_queries_ok = 6;
  m.recovery_time_us = 1500000;
  m.recovery_windows = 2;
  m.fault_plan_digest = 0xabcdef;

  Directions directions;
  const auto doc = JsonValue::parse(
      run_report_json("HLSRG", cfg, m, EngineStats{}, directions).dump());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("config").at("fault_plan_file").as_string(),
            "plans/chaos.json");
  EXPECT_EQ(doc->at("config").at("fault_seed").as_uint64(), 7u);
  const JsonValue& w = doc->at("metrics");
  EXPECT_EQ(w.at("wired_drops").as_uint64(), 4u);
  EXPECT_EQ(w.at("rsu_suppressed").as_uint64(), 6u);
  EXPECT_EQ(w.at("query_retries").as_uint64(), 5u);
  EXPECT_EQ(w.at("query_failovers").as_uint64(), 2u);
  EXPECT_EQ(w.at("queries_stranded").as_uint64(), 1u);
  EXPECT_EQ(w.at("fault_queries_issued").as_uint64(), 8u);
  EXPECT_EQ(w.at("fault_queries_ok").as_uint64(), 6u);
  EXPECT_EQ(w.at("fault_plan_digest").as_uint64(), 0xabcdefu);

  const JsonValue derived = derived_metrics_json(m, false, 1, directions);
  EXPECT_DOUBLE_EQ(derived.at("availability").as_double(), 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(derived.at("recovery_ms").as_double(), 750.0);
  EXPECT_EQ(directions.json().at("derived").at("availability").as_string(),
            "higher");
}

}  // namespace
}  // namespace hlsrg
