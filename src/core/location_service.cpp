#include "core/location_service.h"

#include "util/check.h"

namespace hlsrg {

QueryTracker::QueryId QueryTracker::issue(VehicleId src, VehicleId dst) {
  records_.push_back(Record{src, dst, sim_->now(), SimTime{}, false, false});
  sim_->metrics().queries_issued++;
  const auto id = static_cast<QueryId>(records_.size() - 1);
  // Root of the query's span tree; every leg recorded until the query
  // settles hangs under it (directly or via propagated context).
  records_.back().span = sim_->begin_span(
      SpanKind::kQuery, src.value(), dst.value(), Vec2{}, id);
  sim_->trace_event({{}, TraceEventKind::kQueryIssued, src, dst, {}, id});
  const std::size_t out = records_.size() - settled_count_;
  if (out > peak_outstanding_) {
    peak_outstanding_ = out;
    sim_->metrics().peak_outstanding = out;
  }
  return id;
}

void QueryTracker::succeed(QueryId id) {
  HLSRG_CHECK(id < records_.size());
  Record& r = records_[id];
  if (r.settled) return;
  r.settled = true;
  ++settled_count_;
  r.success = true;
  r.completed = sim_->now();
  sim_->metrics().queries_succeeded++;
  sim_->metrics().query_latency.add(sim_->now() - r.issued);
  if (TraceLog* trace = sim_->trace()) {
    trace->end_open_spans_for_query(id, sim_->now(), SpanStatus::kOk);
  }
  sim_->trace_event({{}, TraceEventKind::kQuerySucceeded, r.src, r.dst, {}, id});
}

void QueryTracker::fail(QueryId id) {
  HLSRG_CHECK(id < records_.size());
  Record& r = records_[id];
  if (r.settled) return;
  r.settled = true;
  ++settled_count_;
  r.completed = sim_->now();
  sim_->metrics().queries_failed++;
  if (TraceLog* trace = sim_->trace()) {
    trace->end_open_spans_for_query(id, sim_->now(), SpanStatus::kFailed);
  }
  sim_->trace_event({{}, TraceEventKind::kQueryFailed, r.src, r.dst, {}, id});
}

bool QueryTracker::settled(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].settled;
}

bool QueryTracker::succeeded(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].success;
}

SimTime QueryTracker::latency(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  const Record& r = records_[id];
  return r.success ? r.completed - r.issued : SimTime{};
}

std::size_t QueryTracker::outstanding() const {
  return records_.size() - settled_count_;
}

VehicleId QueryTracker::source_of(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].src;
}

VehicleId QueryTracker::target_of(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].dst;
}

SimTime QueryTracker::issued_at(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].issued;
}

SimTime QueryTracker::completed_at(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].completed;
}

SpanId QueryTracker::span_of(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].span;
}

}  // namespace hlsrg
