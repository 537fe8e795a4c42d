// Tests for the span trace: recording, filtering, the span-tree dump, and
// the protocol hooks that feed it.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/digest.h"
#include "harness/world.h"
#include "trace/trace.h"

namespace hlsrg {
namespace {

Span make_span(SpanKind kind, std::uint32_t subject,
               std::uint32_t query = kNoQuery, SpanId parent = kNoSpan) {
  Span s;
  s.kind = kind;
  s.subject = subject;
  s.query_id = query;
  s.parent = parent;
  return s;
}

std::uint64_t count_kind(const TraceLog& log, SpanKind kind) {
  return static_cast<std::uint64_t>(
      std::count_if(log.spans().begin(), log.spans().end(),
                    [kind](const Span& s) { return s.kind == kind; }));
}

// One span per event the run metrics count: query roots (and how they
// closed), updates, notifications and ACK legs.
void expect_count_laws(const TraceLog& trace, const RunMetrics& m,
                       const char* protocol) {
  ASSERT_EQ(trace.dropped_spans(), 0u) << protocol;
  std::uint64_t roots = 0, ok = 0, failed = 0;
  for (const Span& s : trace.spans()) {
    if (s.kind != SpanKind::kQuery || s.parent != kNoSpan) continue;
    ++roots;
    if (s.status == SpanStatus::kOk) ++ok;
    if (s.status == SpanStatus::kFailed) ++failed;
  }
  EXPECT_EQ(roots, m.queries_issued) << protocol;
  EXPECT_EQ(ok, m.queries_succeeded) << protocol;
  EXPECT_EQ(failed, m.queries_failed) << protocol;
  EXPECT_EQ(count_kind(trace, SpanKind::kUpdate), m.update_packets_originated)
      << protocol;
  EXPECT_EQ(count_kind(trace, SpanKind::kNotification), m.notifications_sent)
      << protocol;
  EXPECT_EQ(count_kind(trace, SpanKind::kAckLeg), m.acks_sent) << protocol;
}

TEST(TraceLogTest, RecordAndCount) {
  TraceLog log;
  log.begin_span(make_span(SpanKind::kUpdate, 1), SimTime::from_sec(1));
  log.begin_span(make_span(SpanKind::kUpdate, 2), SimTime::from_sec(1));
  log.begin_span(make_span(SpanKind::kQuery, 1, 7), SimTime::from_sec(1));
  EXPECT_EQ(log.span_count(), 3u);
  EXPECT_EQ(count_kind(log, SpanKind::kUpdate), 2u);
  EXPECT_EQ(count_kind(log, SpanKind::kQuery), 1u);
  EXPECT_EQ(count_kind(log, SpanKind::kAckLeg), 0u);
}

TEST(TraceLogTest, FilterByQueryIgnoresNonQueryKinds) {
  // Query id 0 is valid; spans outside any query carry kNoQuery.
  TraceLog log;
  log.begin_span(make_span(SpanKind::kUpdate, 1), SimTime{});
  const SpanId root =
      log.begin_span(make_span(SpanKind::kQuery, 1, 0), SimTime{});
  log.begin_span(make_span(SpanKind::kAckLeg, 4, 0, root), SimTime{});
  log.begin_span(make_span(SpanKind::kQuery, 2, 1), SimTime{});
  EXPECT_EQ(log.spans_for_query(0).size(), 2u);
  EXPECT_EQ(log.spans_for_query(1).size(), 1u);
}

TEST(TraceLogTest, SpanTreeTextKeepsBeginOrderAcrossInterleavedTrees) {
  TraceLog log;
  const SpanId q1 = log.begin_span(make_span(SpanKind::kQuery, 1, 1),
                                   SimTime::from_sec(1));
  const SpanId q2 = log.begin_span(make_span(SpanKind::kQuery, 2, 2),
                                   SimTime::from_sec(2));
  // A child of the first root begun after the second root, with a child of
  // its own begun after a leg of the second tree.
  const SpanId route = log.begin_span(
      make_span(SpanKind::kGpsrRoute, 11, 1, q1), SimTime::from_sec(3));
  log.begin_span(make_span(SpanKind::kAckLeg, 22, 2, q2),
                 SimTime::from_sec(4));
  log.begin_span(make_span(SpanKind::kRadioHop, 12, kNoQuery, route),
                 SimTime::from_sec(5));
  log.begin_span(make_span(SpanKind::kUpdate, 3), SimTime::from_sec(6));
  log.begin_span(make_span(SpanKind::kTableLookup, 13, 1, q1),
                 SimTime::from_sec(7));
  EXPECT_EQ(log.span_tree_text(),
            "query [open] 1.000000s -> 1.000000s subject=1 query=1\n"
            "  gpsr_route [open] 3.000000s -> 3.000000s subject=11 query=1\n"
            "    radio_hop [open] 5.000000s -> 5.000000s subject=12\n"
            "  table_lookup [open] 7.000000s -> 7.000000s subject=13 "
            "query=1\n"
            "query [open] 2.000000s -> 2.000000s subject=2 query=2\n"
            "  ack_leg [open] 4.000000s -> 4.000000s subject=22 query=2\n"
            "update [open] 6.000000s -> 6.000000s subject=3\n");
}

TEST(SpanKindNameTest, AllKindsNamed) {
  for (int k = 0; k <= static_cast<int>(SpanKind::kTablePush); ++k) {
    EXPECT_STRNE(span_kind_name(static_cast<SpanKind>(k)), "unknown") << k;
  }
  EXPECT_STREQ(span_kind_name(SpanKind::kTableHandoff), "table_handoff");
  EXPECT_STREQ(span_kind_name(SpanKind::kTablePush), "table_push");
}

// --- protocol integration ---------------------------------------------------

TEST(TraceIntegrationTest, HlsrgRunEmitsCoherentTrace) {
  ScenarioConfig cfg = paper_scenario(300, 61);
  World world(cfg, Protocol::kHlsrg);
  TraceLog trace;
  world.attach_trace(&trace);
  world.run();
  expect_count_laws(trace, world.metrics(), "HLSRG");

  // Spans begin in nondecreasing time order (single-threaded DES).
  for (std::size_t i = 1; i < trace.spans().size(); ++i) {
    EXPECT_GE(trace.spans()[i].begin, trace.spans()[i - 1].begin);
  }

  // Every successful query's story opens with its root, and no
  // notification or ACK of it begins after it settled.
  for (const Span& root : trace.spans()) {
    if (root.kind != SpanKind::kQuery || root.status != SpanStatus::kOk) {
      continue;
    }
    const auto story = trace.spans_for_query(root.query_id);
    ASSERT_GE(story.size(), 2u);
    EXPECT_EQ(story.front().id, root.id);
    for (const Span& s : story) {
      if (s.kind == SpanKind::kNotification || s.kind == SpanKind::kAckLeg) {
        EXPECT_LE(s.begin, root.end);
      }
    }
  }
}

TEST(TraceIntegrationTest, DetachedTraceCostsNothing) {
  ScenarioConfig cfg = paper_scenario(200, 62);
  World with(cfg, Protocol::kHlsrg);
  TraceLog trace;
  with.attach_trace(&trace);
  World without(cfg, Protocol::kHlsrg);
  with.run();
  without.run();
  // Tracing must not perturb the simulation.
  EXPECT_EQ(with.metrics().radio_broadcasts,
            without.metrics().radio_broadcasts);
  EXPECT_EQ(with.metrics().queries_succeeded,
            without.metrics().queries_succeeded);
  EXPECT_EQ(state_digest(with), state_digest(without));
  EXPECT_GT(trace.span_count(), 0u);
}

TEST(TraceIntegrationTest, RlsmpAndFloodAlsoTrace) {
  for (Protocol protocol : {Protocol::kRlsmp, Protocol::kFlood}) {
    ScenarioConfig cfg = paper_scenario(150, 63);
    World world(cfg, protocol);
    TraceLog trace;
    world.attach_trace(&trace);
    world.run();
    EXPECT_GT(count_kind(trace, SpanKind::kUpdate), 0u)
        << protocol_name(protocol);
    expect_count_laws(trace, world.metrics(), protocol_name(protocol));
  }
}

}  // namespace
}  // namespace hlsrg
