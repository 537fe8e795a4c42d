// Span model for query-lifecycle tracing.
//
// A span is a timed interval in *simulated* time with a parent link: the
// root of each tree is a logical protocol operation (a query, an update, a
// notification, a table hand-off or push) and the children are the legs it
// decomposed into — GPSR routes, individual radio hops, wired RSU hops,
// table lookups, the ACK leg back to the source. Span context propagates
// synchronously through the simulator's active-span register (see SpanScope
// in sim/simulator.h) and across event-queue hops by value, captured in the
// transport closures.
#pragma once

#include <cstdint>

#include "geom/vec2.h"
#include "sim/time.h"

namespace hlsrg {

// Span identifier within one TraceLog; 0 means "no span" so detached tracing
// can thread ids through closures for free.
using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

// Sentinel for "not a query-scoped span" (query ids start at 0).
inline constexpr std::uint32_t kNoQuery = 0xffffffffu;

enum class SpanKind : std::uint8_t {
  kQuery,         // root: issue -> settle, subject = Sv, other = Dv
  kUpdate,        // instant: location update sent, value = one-hop
                  // receivers (0 for FLOOD's map-wide flood)
  kNotification,  // location server answers: notify toward Dv
  kAckLeg,        // Dv's ACK back toward Sv; closed when the query settles
  kGpsrRoute,     // one GPSR send end to end, value = hops
  kRadioHop,      // one unicast hop incl. MAC retries, value = retries used
  kWiredHop,      // one backhaul message, value = wired hop count
  kTableLookup,   // instant: location-table probe, ok = hit / failed = miss
  kRetry,         // instant: a query request re-issued after an ACK timeout,
                  // value = attempt number
  kFailover,      // instant: a send escalated around a dead component
                  // (crashed RSU, cut wired path); detail names the route
  kBatch,         // batching window at an RSU: armed -> flushed,
                  // value = queries in the batch
  kCacheHit,      // instant: RSU hot-destination cache answered a query
  kShed,          // instant: admission control refused a query or retry,
                  // detail names which
  kTableHandoff,  // instant: a leaving L1 center broadcasts its table,
                  // value = records
  kTablePush,     // instant: an L1 center sends its table to its L2 RSU,
                  // other = the RSU's node, value = records
};

[[nodiscard]] const char* span_kind_name(SpanKind kind);

enum class SpanStatus : std::uint8_t {
  kOpen,    // begun, not yet ended (still possible at the run horizon)
  kOk,      // completed successfully (delivered / hit / settled ok)
  kFailed,  // abandoned / miss / query failed
};

[[nodiscard]] const char* span_status_name(SpanStatus status);

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;  // kNoSpan = root
  SpanKind kind = SpanKind::kQuery;
  SpanStatus status = SpanStatus::kOpen;
  SimTime begin;
  SimTime end;
  // Participants; meaning is kind-dependent (vehicle ids for protocol spans,
  // node ids for transport hops). kNoQuery = not set.
  std::uint32_t subject = kNoQuery;
  std::uint32_t other = kNoQuery;
  Vec2 begin_pos;
  Vec2 end_pos;
  // Query this span belongs to; spans still open when the query settles are
  // closed with the query's outcome. kNoQuery for non-query spans.
  std::uint32_t query_id = kNoQuery;
  // Grid level context (1-3); -1 = not applicable.
  std::int8_t level = -1;
  // Kind-dependent magnitude: hops, receivers, retries.
  std::int32_t value = 0;
  // Static detail string (e.g. packet kind name); never owned.
  const char* detail = nullptr;

  [[nodiscard]] SimTime duration() const { return end - begin; }
};

}  // namespace hlsrg
