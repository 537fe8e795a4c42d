#include "trace/trace.h"

#include <cstdio>

namespace hlsrg {
namespace {

// Fixed-precision float -> string that is byte-stable across platforms: the
// C locale may use ',' as the decimal separator, so normalize it back to
// '.' after formatting.
std::string format_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  for (char* p = buf; *p != '\0'; ++p) {
    if (*p == ',') *p = '.';
  }
  return buf;
}

}  // namespace

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
  const std::uint32_t query_id = spans_[root - 1].query_id;
  for (std::size_t i = root - 1; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    if (s.query_id != query_id || s.status != SpanStatus::kOpen) continue;
    s.status = status;
    s.end = end;
    s.end_pos = s.begin_pos;
  }
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

void append_span_line(std::string& out, const Span& s, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += span_kind_name(s.kind);
  out += " [";
  out += span_status_name(s.status);
  out += "] ";
  out += format_fixed(s.begin.sec(), 6);
  out += "s -> ";
  out += format_fixed(s.end.sec(), 6);
  out += 's';
  if (s.subject != kNoQuery) {
    out += " subject=";
    out += std::to_string(s.subject);
  }
  if (s.other != kNoQuery) {
    out += " other=";
    out += std::to_string(s.other);
  }
  if (s.query_id != kNoQuery) {
    out += " query=";
    out += std::to_string(s.query_id);
  }
  if (s.level >= 0) {
    out += " level=";
    out += std::to_string(s.level);
  }
  if (s.value != 0) {
    out += " value=";
    out += std::to_string(s.value);
  }
  if (s.detail != nullptr) {
    out += " detail=";
    out += s.detail;
  }
  out += '\n';
}

// Children lists indexed by parent id (kNoSpan holds the roots), each in
// record order, which is begin order.
using ChildLists = std::vector<std::vector<std::uint32_t>>;

void append_children(std::string& out, const std::vector<Span>& spans,
                     const ChildLists& children, SpanId parent, int depth) {
  for (const std::uint32_t i : children[parent]) {
    append_span_line(out, spans[i], depth);
    append_children(out, spans, children, i + 1, depth + 1);
  }
}

}  // namespace

std::string TraceLog::span_tree_text() const {
  // Bucket the children by parent in one pass: the dump stays linear in
  // the span count.
  ChildLists children(spans_.size() + 1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanId parent = spans_[i].parent;
    if (parent < children.size()) {
      children[parent].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::string out;
  append_children(out, spans_, children, kNoSpan, 0);
  return out;
}

}  // namespace hlsrg
