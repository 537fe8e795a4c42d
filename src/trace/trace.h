// Optional per-run trace: query-lifecycle span trees and instant spans.
//
// When a TraceLog is attached to the Simulator, protocol code records span
// trees (query -> GPSR route -> radio hop, wired hop, table lookup, ACK leg)
// and instant spans for the protocol events the evaluation counts (location
// updates, table hand-offs and pushes), with sim-time stamps and positions.
// The trace costs nothing when detached (a null check) and gives
// examples/tests a way to assert on protocol *behaviour* rather than just
// aggregate counters, plus Chrome-trace / span-tree exports for offline
// analysis (see trace/chrome_trace.h).
//
// Memory is bounded: past the configured cap, new spans are counted in
// dropped_spans() instead of stored, so long runs cannot exhaust the host.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geom/vec2.h"
#include "sim/time.h"
#include "trace/span.h"

namespace hlsrg {

class TraceLog {
 public:
  // The default cap bounds a trace to ~100 MB worst case; raise or lower
  // per run (scenario_cli --trace-cap). 0 disables span storage entirely
  // (every span is counted as dropped).
  static constexpr std::size_t kDefaultCap = std::size_t{1} << 20;

  TraceLog() = default;

  void set_capacity(std::size_t max_spans) { max_spans_ = max_spans; }

  [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_spans_; }

  // Opens a span at `begin`; `span.id` is assigned (index + 1) and `parent`
  // is kept as passed. Returns kNoSpan when the span cap is reached.
  SpanId begin_span(Span span, SimTime begin);

  // Closes an open span; a no-op for kNoSpan or spans already ended, so the
  // settle-time sweep below cannot relabel legs that ended on their own.
  void end_span(SpanId id, SimTime end, SpanStatus status,
                Vec2 end_pos = Vec2{}, std::int32_t value = -1);

  // Closes every still-open span carrying the query id of `root` (root +
  // in-flight legs) with the query's outcome — called when a query
  // settles. Walks only that query's own spans, so a settle costs
  // O(spans of the query), not O(log); a kNoSpan root (dropped by the cap,
  // which then drops every later span too) is a no-op.
  void end_open_spans_for_query(SpanId root, SimTime end, SpanStatus status);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  // nullptr for kNoSpan / dropped ids.
  [[nodiscard]] const Span* span(SpanId id) const {
    if (id == kNoSpan || id > spans_.size()) return nullptr;
    return &spans_[id - 1];
  }

  // Direct children of `parent`, in begin order (== record order).
  [[nodiscard]] std::vector<Span> children_of(SpanId parent) const;

  // All spans tagged with `query_id`, in record order.
  [[nodiscard]] std::vector<Span> spans_for_query(
      std::uint32_t query_id) const;

  // Indented text dump of every span tree, roots in begin order.
  [[nodiscard]] std::string span_tree_text() const;

 private:
  std::vector<Span> spans_;
  // Ids of the spans recorded under each query id, in record order; an
  // entry is dropped when its query settles.
  std::unordered_map<std::uint32_t, std::vector<SpanId>> query_spans_;
  std::size_t max_spans_ = kDefaultCap;
  std::uint64_t dropped_spans_ = 0;
};

}  // namespace hlsrg
