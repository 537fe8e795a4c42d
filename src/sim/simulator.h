// Simulator façade: event queue + per-subsystem RNG streams + metrics.
//
// One Simulator instance is one independent world; replicas in a benchmark
// sweep each own a Simulator and run on separate threads with zero shared
// mutable state.
#pragma once

#include <cstdint>

#include "obs/profiler.h"
#include "obs/region_telemetry.h"
#include "sim/counters.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace hlsrg {

class Simulator {
 public:
  // `seed` determines every stochastic choice in the run. The six streams
  // are split from it so subsystems cannot perturb each other's draws:
  // protocol changes leave mobility trajectories identical, fault injection
  // (src/fault) draws from its own stream so a scripted fault plan cannot
  // shift radio/mobility/workload draw order, and the open-loop generator
  // (src/service) is decoupled from the closed-loop workload stream so
  // enabling it never re-times the paper-scenario queries.
  explicit Simulator(std::uint64_t seed)
      : root_rng_(seed),
        mobility_rng_(root_rng_.split(RngStreamId::kMobility)),
        radio_rng_(root_rng_.split(RngStreamId::kRadio)),
        protocol_rng_(root_rng_.split(RngStreamId::kProtocol)),
        workload_rng_(root_rng_.split(RngStreamId::kWorkload)),
        fault_rng_(root_rng_.split(RngStreamId::kFault)),
        open_loop_rng_(root_rng_.split(RngStreamId::kOpenLoop)) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return queue_.now(); }

  EventHandle schedule_at(SimTime when, EventQueue::Action action) {
    return queue_.schedule_at(when, std::move(action));
  }
  EventHandle schedule_after(SimTime delay, EventQueue::Action action) {
    return queue_.schedule_at(queue_.now() + delay, std::move(action));
  }
  bool cancel(EventHandle h) { return queue_.cancel(h); }

  // Runs the queue up to `until`. With a profiler attached the dispatch loop
  // runs here (one "dispatch" scope per event under "event_loop") instead of
  // inside EventQueue; order, counters, and the final clock advance are
  // identical either way, so the profiled and unprofiled paths produce the
  // same digests.
  std::size_t run_until(SimTime until);

  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }
  [[nodiscard]] Rng& mobility_rng() { return mobility_rng_; }
  [[nodiscard]] Rng& radio_rng() { return radio_rng_; }
  [[nodiscard]] Rng& protocol_rng() { return protocol_rng_; }
  [[nodiscard]] Rng& workload_rng() { return workload_rng_; }
  [[nodiscard]] Rng& fault_rng() { return fault_rng_; }
  [[nodiscard]] Rng& open_loop_rng() { return open_loop_rng_; }

  [[nodiscard]] RunMetrics& metrics() { return metrics_; }
  [[nodiscard]] const RunMetrics& metrics() const { return metrics_; }

  // Snapshot of the engine counters (wall_clock_sec and peak_rss_bytes are
  // the harness's to fill; the simulator has no business probing the host.
  // table_bytes and the neighbor-index counters are the harness's too: it
  // reads them from the world's service and radio medium).
  [[nodiscard]] EngineStats engine_stats() const {
    EngineStats s;
    s.events_processed = queue_.events_dispatched();
    s.events_scheduled = queue_.events_scheduled();
    s.peak_queue_depth = queue_.peak_depth();
    s.sim_time_sec = queue_.now().sec();
    if (trace_ != nullptr) s.trace_spans_dropped = trace_->dropped_spans();
    return s;
  }

  // Optional span trace: null (default) means tracing is off. The log must
  // outlive the simulation.
  void set_trace(TraceLog* trace) { trace_ = trace; }
  [[nodiscard]] TraceLog* trace() { return trace_; }

  // ---- span context ------------------------------------------------------
  // The active span is the parent for spans begun synchronously under it;
  // it propagates across event-queue hops by value (captured in transport
  // closures and re-established with SpanScope around delivery). Everything
  // here degrades to a null check + integer copies when tracing is off.

  [[nodiscard]] SpanId active_span() const { return active_span_; }
  void set_active_span(SpanId id) { active_span_ = id; }

  // Opens a span at now() parented under the active span. kNoSpan when
  // tracing is detached (or the span cap was hit) — safe to thread through
  // closures and pass back to end_span either way.
  SpanId begin_span(SpanKind kind, std::uint32_t subject, std::uint32_t other,
                    Vec2 pos, std::uint32_t query_id = kNoQuery,
                    int level = -1, const char* detail = nullptr) {
    if (trace_ == nullptr) return kNoSpan;
    Span s;
    s.parent = active_span_;
    s.kind = kind;
    s.subject = subject;
    s.other = other;
    s.begin_pos = pos;
    s.end_pos = pos;
    s.query_id = query_id;
    s.level = static_cast<std::int8_t>(level);
    s.detail = detail;
    return trace_->begin_span(s, now());
  }

  // Closes a span at now(); idempotent, no-op for kNoSpan / when detached.
  void end_span(SpanId id, SpanStatus status, Vec2 pos = Vec2{},
                std::int32_t value = -1) {
    if (trace_ != nullptr) trace_->end_span(id, now(), status, pos, value);
  }

  // Zero-duration span (table lookups, updates, table hand-offs and pushes).
  void instant_span(SpanKind kind, SpanStatus status, std::uint32_t subject,
                    std::uint32_t other, Vec2 pos,
                    std::uint32_t query_id = kNoQuery, int level = -1,
                    const char* detail = nullptr, std::int32_t value = -1) {
    if (trace_ == nullptr) return;
    const SpanId id = begin_span(kind, subject, other, pos, query_id, level,
                                 detail);
    trace_->end_span(id, now(), status, pos, value);
  }

  // Always-on named metrics (counters/gauges/histograms/series); feeding it
  // draws no randomness, so it never perturbs determinism digests.
  [[nodiscard]] MetricsRegistry& observability() { return observability_; }
  [[nodiscard]] const MetricsRegistry& observability() const {
    return observability_;
  }

  // Per-L3-region telemetry; null (default) when the world has no region
  // geometry (unit tests driving the simulator bare). Counter increments
  // only — digest-neutral like observability().
  void set_regions(RegionTelemetry* regions) { regions_ = regions; }
  [[nodiscard]] RegionTelemetry* regions() { return regions_; }

  // One-line region-counter bumps for protocol sites; no-ops when no
  // telemetry is attached. `pos` decides the region (update origination →
  // the vehicle's region, lookups/cache answers → the serving node's).
  void count_region_update(Vec2 pos) {
    if (regions_ != nullptr) ++regions_->at(regions_->region_of(pos)).updates;
  }
  void count_region_served(Vec2 pos) {
    if (regions_ != nullptr) {
      ++regions_->at(regions_->region_of(pos)).queries_served;
    }
  }
  void count_region_cache_hit(Vec2 pos) {
    if (regions_ != nullptr) {
      ++regions_->at(regions_->region_of(pos)).cache_hits;
    }
  }

  // Wall-clock phase profiler; null (default) means profiling is off and
  // every ProfileScope built from this pointer is a no-op.
  void set_profiler(PhaseProfiler* profiler) { profiler_ = profiler; }
  // Const on purpose: profiling timers are not simulation state, so even
  // const observers (auditors) may open scopes.
  [[nodiscard]] PhaseProfiler* profiler() const { return profiler_; }

 private:
  EventQueue queue_;
  TraceLog* trace_ = nullptr;
  SpanId active_span_ = kNoSpan;
  MetricsRegistry observability_;
  RegionTelemetry* regions_ = nullptr;
  PhaseProfiler* profiler_ = nullptr;
  Rng root_rng_;
  Rng mobility_rng_;
  Rng radio_rng_;
  Rng protocol_rng_;
  Rng workload_rng_;
  Rng fault_rng_;
  Rng open_loop_rng_;
  RunMetrics metrics_;
};

// RAII span-context guard: makes `span` the active span (the parent for
// spans begun while in scope) and restores the previous context on exit.
// Used both to nest synchronous work under a new span and to re-anchor
// async continuations (timer callbacks, sink deliveries) to the span they
// logically belong to. Costs two integer copies when tracing is detached.
class SpanScope {
 public:
  SpanScope(Simulator& sim, SpanId span)
      : sim_(sim), saved_(sim.active_span()) {
    sim_.set_active_span(span);
  }
  ~SpanScope() { sim_.set_active_span(saved_); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Simulator& sim_;
  SpanId saved_;
};

}  // namespace hlsrg
