#include "trace/trace.h"

#include <charconv>

namespace hlsrg {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kUpdate:
      return "update";
    case SpanKind::kNotification:
      return "notification";
    case SpanKind::kAckLeg:
      return "ack_leg";
    case SpanKind::kGpsrRoute:
      return "gpsr_route";
    case SpanKind::kRadioHop:
      return "radio_hop";
    case SpanKind::kWiredHop:
      return "wired_hop";
    case SpanKind::kTableLookup:
      return "table_lookup";
    case SpanKind::kRetry:
      return "retry";
    case SpanKind::kFailover:
      return "failover";
    case SpanKind::kBatch:
      return "batch";
    case SpanKind::kCacheHit:
      return "cache_hit";
    case SpanKind::kShed:
      return "shed";
    case SpanKind::kTableHandoff:
      return "table_handoff";
    case SpanKind::kTablePush:
      return "table_push";
  }
  return "unknown";
}

const char* span_status_name(SpanStatus status) {
  switch (status) {
    case SpanStatus::kOpen:
      return "open";
    case SpanStatus::kOk:
      return "ok";
    case SpanStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

SpanId TraceLog::begin_span(Span span, SimTime begin) {
  if (spans_.size() >= max_spans_) {
    ++dropped_spans_;
    return kNoSpan;
  }
  span.id = static_cast<SpanId>(spans_.size() + 1);
  span.status = SpanStatus::kOpen;
  span.begin = begin;
  span.end = begin;
  spans_.push_back(span);
  if (span.query_id != kNoQuery) {
    query_spans_[span.query_id].push_back(span.id);
  }
  return span.id;
}

void TraceLog::end_span(SpanId id, SimTime end, SpanStatus status,
                        Vec2 end_pos, std::int32_t value) {
  if (id == kNoSpan || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  if (s.status != SpanStatus::kOpen) return;  // first close wins
  s.status = status;
  s.end = end;
  s.end_pos = end_pos;
  if (value >= 0) s.value = value;
}

void TraceLog::end_open_spans_for_query(SpanId root, SimTime end,
                                        SpanStatus status) {
  if (root == kNoSpan || root > spans_.size()) return;
  const auto it = query_spans_.find(spans_[root - 1].query_id);
  if (it == query_spans_.end()) return;
  for (const SpanId id : it->second) {
    Span& s = spans_[id - 1];
    if (s.status != SpanStatus::kOpen) continue;
    s.status = status;
    s.end = end;
    s.end_pos = s.begin_pos;
  }
  query_spans_.erase(it);
}

std::vector<Span> TraceLog::children_of(SpanId parent) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.parent == parent) out.push_back(s);
  }
  return out;
}

std::vector<Span> TraceLog::spans_for_query(std::uint32_t query_id) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.query_id == query_id) out.push_back(s);
  }
  return out;
}

namespace {

// Appends `v` with `precision` fixed decimals. std::to_chars formats as
// printf does in the C locale, whatever the global locale, so the dump is
// byte-stable across platforms; a simulated time (int64 microseconds) fits
// the buffer.
void append_fixed(std::string& out, double v, int precision) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::fixed, precision);
  out.append(buf, r.ptr);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_span_line(std::string& out, const Span& s, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += span_kind_name(s.kind);
  out += " [";
  out += span_status_name(s.status);
  out += "] ";
  append_fixed(out, s.begin.sec(), 6);
  out += "s -> ";
  append_fixed(out, s.end.sec(), 6);
  out += 's';
  if (s.subject != kNoQuery) {
    out += " subject=";
    append_int(out, s.subject);
  }
  if (s.other != kNoQuery) {
    out += " other=";
    append_int(out, s.other);
  }
  if (s.query_id != kNoQuery) {
    out += " query=";
    append_int(out, s.query_id);
  }
  if (s.level >= 0) {
    out += " level=";
    append_int(out, s.level);
  }
  if (s.value != 0) {
    out += " value=";
    append_int(out, s.value);
  }
  if (s.detail != nullptr) {
    out += " detail=";
    out += s.detail;
  }
  out += '\n';
}

// Children of every span in one flat array, grouped by parent id
// (kNoSpan holds the roots), each group in record order, which is begin
// order: the children of parent p are child[first[p] .. first[p + 1]).
struct ChildIndex {
  std::vector<std::uint32_t> first;
  std::vector<std::uint32_t> child;
};

void append_children(std::string& out, const std::vector<Span>& spans,
                     const ChildIndex& index, SpanId parent, int depth) {
  for (std::uint32_t k = index.first[parent]; k < index.first[parent + 1];
       ++k) {
    const std::uint32_t i = index.child[k];
    append_span_line(out, spans[i], depth);
    append_children(out, spans, index, i + 1, depth + 1);
  }
}

}  // namespace

std::string TraceLog::span_tree_text() const {
  // Bucket the children by parent with a counting sort: the dump stays
  // linear in the span count. A span whose parent is not in the log is
  // left out, as is its subtree.
  const std::size_t n = spans_.size();
  ChildIndex index;
  index.first.assign(n + 2, 0);
  for (const Span& s : spans_) {
    if (s.parent <= n) ++index.first[s.parent + 1];
  }
  for (std::size_t p = 0; p <= n; ++p) index.first[p + 1] += index.first[p];
  index.child.resize(index.first[n + 1]);
  std::vector<std::uint32_t> fill(index.first.begin(), index.first.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const SpanId parent = spans_[i].parent;
    if (parent <= n) {
      index.child[fill[parent]++] = static_cast<std::uint32_t>(i);
    }
  }
  std::string out;
  append_children(out, spans_, index, kNoSpan, 0);
  return out;
}

}  // namespace hlsrg
