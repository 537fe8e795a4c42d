// Named counters and latency accumulators for per-run metrics.
//
// Every protocol-relevant transmission increments a counter here; the bench
// harness reads the registry after a run to produce the paper's figures.
// Counters are plain members (not a string-keyed map) so the hot path is an
// increment, and so the set of metrics is a compile-time-visible contract.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/check.h"

namespace hlsrg {

// Per-packet-kind channel accounting for the conservation auditor. Every
// channel-level delivery decision is recorded at decision time: a broadcast
// offers the packet to each in-range receiver, a unicast to its target, a
// wired send to its destination; each offer settles immediately as either
// delivered (reception scheduled) or dropped (lost to the channel). The
// invariant `offered == delivered + dropped` therefore holds per kind at
// every instant — in-flight packets are counted as pending events by the
// event-queue conservation law instead. The kind key is the raw PacketKind
// value (sim cannot depend on net/packet.h); all kinds fit in one byte.
class PacketLedger {
 public:
  static constexpr std::size_t kSlots = 256;

  void add_offered(int kind, std::uint64_t n = 1) { offered_[slot(kind)] += n; }
  void add_delivered(int kind, std::uint64_t n = 1) {
    delivered_[slot(kind)] += n;
  }
  void add_dropped(int kind, std::uint64_t n = 1) { dropped_[slot(kind)] += n; }
  // Shed packets were refused by admission control *before* reaching a
  // channel, so they are deliberately outside the offered/delivered/dropped
  // law; the auditor reconciles them against the RunMetrics shed counters.
  void add_shed(int kind) { ++shed_[slot(kind)]; }

  [[nodiscard]] std::uint64_t offered(int kind) const {
    return offered_[slot(kind)];
  }
  [[nodiscard]] std::uint64_t delivered(int kind) const {
    return delivered_[slot(kind)];
  }
  [[nodiscard]] std::uint64_t dropped(int kind) const {
    return dropped_[slot(kind)];
  }
  [[nodiscard]] std::uint64_t shed(int kind) const { return shed_[slot(kind)]; }

  [[nodiscard]] std::uint64_t total_offered() const { return sum(offered_); }
  [[nodiscard]] std::uint64_t total_delivered() const {
    return sum(delivered_);
  }
  [[nodiscard]] std::uint64_t total_dropped() const { return sum(dropped_); }
  [[nodiscard]] std::uint64_t total_shed() const { return sum(shed_); }

  void merge(const PacketLedger& other) {
    for (std::size_t i = 0; i < kSlots; ++i) {
      offered_[i] += other.offered_[i];
      delivered_[i] += other.delivered_[i];
      dropped_[i] += other.dropped_[i];
      shed_[i] += other.shed_[i];
    }
  }

 private:
  [[nodiscard]] static std::size_t slot(int kind) {
    HLSRG_DCHECK(kind >= 0 && kind < static_cast<int>(kSlots));
    return static_cast<std::size_t>(kind) % kSlots;
  }
  [[nodiscard]] static std::uint64_t sum(
      const std::array<std::uint64_t, kSlots>& a) {
    std::uint64_t t = 0;
    for (std::uint64_t v : a) t += v;
    return t;
  }

  std::array<std::uint64_t, kSlots> offered_{};
  std::array<std::uint64_t, kSlots> delivered_{};
  std::array<std::uint64_t, kSlots> dropped_{};
  std::array<std::uint64_t, kSlots> shed_{};
};

// Accumulates latency samples; reports count/mean/min/max and percentiles.
// Sample counts here are small (one per query), so every sample is kept and
// percentiles are exact.
class LatencyStat {
 public:
  void add(SimTime sample);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean_ms() const;
  [[nodiscard]] double min_ms() const;
  [[nodiscard]] double max_ms() const;
  // Exact percentile (nearest-rank), q in [0,1]; 0 when empty.
  [[nodiscard]] double percentile_ms(double q) const;
  [[nodiscard]] double p50_ms() const { return percentile_ms(0.50); }
  [[nodiscard]] double p90_ms() const { return percentile_ms(0.90); }
  [[nodiscard]] double p95_ms() const { return percentile_ms(0.95); }
  [[nodiscard]] double p99_ms() const { return percentile_ms(0.99); }
  // Every sample in microseconds, ascending.
  [[nodiscard]] const std::vector<std::int64_t>& samples_us() const;

  // Merges another accumulator into this one (used when averaging replicas).
  void merge(const LatencyStat& other);

 private:
  std::uint64_t count_ = 0;
  std::int64_t sum_us_ = 0;
  std::int64_t min_us_ = 0;
  std::int64_t max_us_ = 0;
  // Kept unsorted; sorted on demand by samples_us.
  mutable std::vector<std::int64_t> samples_us_;
  mutable bool sorted_ = false;
};

// --- the metric field tables --------------------------------------------------
// Every RunMetrics and EngineStats field is declared once, in the two tables
// below. Each row names the field and carries what every consumer needs: how
// replicas merge it, when the determinism digest mixes it, and in which
// direction a regression gate calls it better. The struct members, the
// merge functions, the digest mix (harness/digest.cpp), the report JSON and
// its `directions` block (report/run_report.cpp) all derive from the rows.
// Row order is the report key order and, within a digest group, the mixing
// order, so reordering rows changes both.

// How a field combines across replicas.
enum class MergeRule : std::uint8_t {
  kSum,      // counts and times add up
  kMax,      // peaks and per-sweep markers keep the largest replica's value
  kDerived,  // an EngineStats rate, recomputed from the merged fields
};

// The direction in which a value is better, for regression gates
// (scripts/bench_compare.py). kUnchanged: a move either way counts against.
enum class Better : std::uint8_t { kHigher, kLower, kUnchanged };

// When a RunMetrics field joins the determinism digest.
enum class DigestGroup : std::uint8_t {
  kAlways,  // in every run
  kFault,   // only when a fault plan ran (fault_plan_digest != 0)
  kChurn,   // only when the churn subsystem ran (churn_active != 0)
  kNone,    // never (fault_plan_digest is mixed by hand, first in kFault)
};

// Which bench_compare.py gate owns an EngineStats key.
enum class EngineGate : std::uint8_t {
  kEngine,  // deterministic engine counts (--include-engine)
  kTiming,  // host-time measurements (--include-timing)
  kMemory,  // footprint (the "memory" group)
};

struct MetricSpec {
  const char* name;
  MergeRule merge;
  DigestGroup digest;
  Better better;
};

struct EngineSpec {
  const char* name;
  MergeRule merge;
  EngineGate gate;
  Better better;
};

// EngineStats keys. F(type, name, merge, gate, better) declares a field;
// R(name, numerator) declares a host rate, numerator per wall-clock second
// (0 when the wall clock was not captured), reported where it is listed.
// Rates are timing-gated and higher is better. There is no events-per-second
// rate: it moves when the engine only reschedules the same work. Peaks take
// the max: replicas run in separate queues, RSS is a process-wide high-water
// mark to begin with, and each replica holds a full copy of the world, so
// the largest table_bytes is the footprint one replica needs (what the
// memory gate compares).
#define HLSRG_ENGINE_STATS(F, R)                                         \
  /* events dispatched by the queue */                                   \
  F(std::uint64_t, events_processed, kSum, kEngine, kUnchanged)          \
  /* events ever scheduled */                                            \
  F(std::uint64_t, events_scheduled, kSum, kEngine, kUnchanged)          \
  /* pending-event high-water mark */                                    \
  F(std::uint64_t, peak_queue_depth, kMax, kEngine, kUnchanged)          \
  /* simulated horizon covered */                                        \
  F(double, sim_time_sec, kSum, kTiming, kUnchanged)                     \
  /* host time spent running the replica */                              \
  F(double, wall_clock_sec, kSum, kTiming, kLower)                       \
  R(sim_seconds_per_sec, sim_time_sec)                                   \
  /* neighbor-index rebuild passes (full or incremental) */              \
  F(std::uint64_t, index_rebuilds, kSum, kEngine, kLower)                \
  /* per-node contention-density recounts (density cache misses) */      \
  F(std::uint64_t, density_recounts, kSum, kEngine, kLower)              \
  /* process RSS high-water mark */                                      \
  F(std::uint64_t, peak_rss_bytes, kMax, kMemory, kLower)                \
  /* protocol-table + registry heap bytes at end of run */               \
  F(std::uint64_t, table_bytes, kMax, kMemory, kLower)                   \
  /* spans past the trace cap */                                         \
  F(std::uint64_t, trace_spans_dropped, kSum, kEngine, kLower)

// RunMetrics counters: X(name, merge, digest, better). Semantics:
//   *_originated : packets created by their source (what the paper counts as
//                  "number of location update packets").
//   *_transmissions : every radio transmission, including forwards/rebroadcasts
//                  (overhead in airtime terms).
// Churn conservation laws (ChurnAuditor), holding at every instant:
//   records_at_departure == handoff_records_delivered
//                           + handoff_records_expired
//                           + handoff_records_in_flight
//   role_departures == role_elections + role_vacancies
// In-flight records settle when their handoff packet is delivered (merged),
// suppressed at a crashed receiver, or lost after MAC retries.
#define HLSRG_RUN_METRICS(X)                                             \
  /* --- location update traffic --- */                                  \
  X(update_packets_originated, kSum, kAlways, kUnchanged)                \
  X(update_transmissions, kSum, kAlways, kUnchanged)                     \
  /* hierarchy maintenance: L1 table handoffs/pushes, L2->L3 merges */   \
  /* (HLSRG); leader->LSC aggregation (RLSMP) */                         \
  X(aggregation_packets, kSum, kAlways, kUnchanged)                      \
  X(aggregation_transmissions, kSum, kAlways, kUnchanged)                \
  /* --- query traffic --- */                                            \
  X(queries_issued, kSum, kAlways, kUnchanged)                           \
  X(queries_succeeded, kSum, kAlways, kHigher)                           \
  X(queries_failed, kSum, kAlways, kLower)                               \
  /* request + notification + ACK; all hops of those */                  \
  X(query_packets_originated, kSum, kAlways, kUnchanged)                 \
  X(query_transmissions, kSum, kAlways, kUnchanged)                      \
  /* --- protocol-event accounting (diagnosis + tests) --- */            \
  /* L1 center / LSC table hit; miss = forwarded up / spiral */          \
  X(server_lookup_hits, kSum, kAlways, kUnchanged)                       \
  X(server_lookup_misses, kSum, kAlways, kUnchanged)                     \
  /* L2/L3 RSU table hit / miss */                                       \
  X(rsu_lookup_hits, kSum, kAlways, kUnchanged)                          \
  X(rsu_lookup_misses, kSum, kAlways, kUnchanged)                        \
  /* geocasts toward Dv; Dv answered */                                  \
  X(notifications_sent, kSum, kAlways, kUnchanged)                       \
  X(acks_sent, kSum, kAlways, kUnchanged)                                \
  /* --- radio-level accounting --- */                                   \
  /* one-hop broadcast transmissions; GPSR hop transmissions */          \
  X(radio_broadcasts, kSum, kAlways, kUnchanged)                         \
  X(radio_unicasts, kSum, kAlways, kUnchanged)                           \
  /* geocast rebroadcasts skipped: a near relay already covered them */  \
  X(rebroadcasts_suppressed, kSum, kAlways, kUnchanged)                  \
  /* receptions lost to the channel */                                   \
  X(radio_drops, kSum, kAlways, kLower)                                  \
  /* RSU backhaul messages */                                            \
  X(wired_messages, kSum, kAlways, kUnchanged)                           \
  /* unicast abandoned (no route) */                                     \
  X(gpsr_failures, kSum, kAlways, kLower)                                \
  /* GPSR hops chosen by perimeter mode (right-hand rule) */             \
  X(gpsr_perimeter_hops, kSum, kNone, kLower)                            \
  /* how each abandoned unicast ended (ConservationAuditor: they sum */  \
  /* to gpsr_failures): no neighbor at all; greedy minimum whose */      \
  /* range covers the empty delivery disc; face toured back to its */    \
  /* first edge; hop cap; hop lost after the MAC retries */              \
  X(gpsr_fail_no_neighbor, kSum, kNone, kUnchanged)                      \
  X(gpsr_fail_empty_disc, kSum, kNone, kUnchanged)                       \
  X(gpsr_fail_face_loop, kSum, kNone, kUnchanged)                        \
  X(gpsr_fail_hop_cap, kSum, kNone, kUnchanged)                          \
  X(gpsr_fail_link_lost, kSum, kNone, kUnchanged)                        \
  /* --- fault + degradation accounting (src/fault) --- */               \
  /* wired sends lost: no path, cut link, or down endpoint */            \
  X(wired_drops, kSum, kFault, kLower)                                   \
  /* packets arriving at a crashed RSU */                                \
  X(rsu_suppressed, kSum, kFault, kUnchanged)                            \
  /* request re-issues (attempt > 1) */                                  \
  X(query_retries, kSum, kFault, kUnchanged)                             \
  /* sends escalated around a dead component (RSU / wired path) */       \
  X(query_failovers, kSum, kFault, kUnchanged)                           \
  /* unsettled at the run horizon */                                     \
  X(queries_stranded, kSum, kNone, kLower)                               \
  /* issued during a fault window; of those, succeeded */                \
  X(fault_queries_issued, kSum, kNone, kUnchanged)                       \
  X(fault_queries_ok, kSum, kNone, kUnchanged)                           \
  /* sum of fault-clear -> first-success gaps over recovered windows */  \
  X(recovery_time_us, kSum, kNone, kUnchanged)                           \
  /* finite fault windows with a post-clearance success */               \
  X(recovery_windows, kSum, kNone, kUnchanged)                           \
  /* FNV digest of the active fault schedule, 0 = no faults; common */   \
  /* to the replicas of one sweep. Nonzero, it is mixed first and */     \
  /* gates the kFault block, so zero-fault runs hash byte-identically */ \
  /* with fault-unaware builds. */                                       \
  X(fault_plan_digest, kMax, kNone, kUnchanged)                          \
  /* --- service-tier accounting (src/service) --- */                    \
  /* submissions seen by QueryAdmission */                               \
  X(queries_offered, kSum, kNone, kUnchanged)                            \
  /* new queries refused under overload */                               \
  X(queries_shed, kSum, kNone, kLower)                                   \
  /* retry attempts refused (the query then fails, never hangs) */       \
  X(retries_shed, kSum, kNone, kLower)                                   \
  /* RSU hot-destination cache answered; probed, no fresh entry */       \
  X(cache_hits, kSum, kNone, kUnchanged)                                 \
  X(cache_misses, kSum, kNone, kUnchanged)                               \
  /* cache entries evicted by a fresher update */                        \
  X(cache_invalidations, kSum, kNone, kUnchanged)                        \
  /* queries that rode a batch flush; wired batch lookups sent */        \
  X(batched_queries, kSum, kNone, kUnchanged)                            \
  X(batch_flushes, kSum, kNone, kUnchanged)                              \
  /* unsettled-query high-water mark; fleet-wide, the worst replica */   \
  X(peak_outstanding, kMax, kNone, kLower)                               \
  /* --- infrastructure churn (parked-cars-as-RSUs, src/core) --- */     \
  /* hosts that left an L2/L3 role */                                    \
  X(role_departures, kSum, kChurn, kUnchanged)                           \
  /* successor bound at departure time */                                \
  X(role_elections, kSum, kChurn, kUnchanged)                            \
  /* departures that left the role down */                               \
  X(role_vacancies, kSum, kChurn, kLower)                                \
  /* vacant roles re-staffed later */                                    \
  X(role_fills, kSum, kChurn, kUnchanged)                                \
  /* kRoleHandoff packets sent; merged by the receiver; lost, */         \
  /* suppressed or unreachable */                                        \
  X(handoffs_sent, kSum, kChurn, kUnchanged)                             \
  X(handoffs_delivered, kSum, kChurn, kUnchanged)                        \
  X(handoffs_lost, kSum, kChurn, kLower)                                 \
  /* records riding a handoff; merged at the receiver */                 \
  X(handoff_records_sent, kSum, kChurn, kUnchanged)                      \
  X(handoff_records_delivered, kSum, kChurn, kUnchanged)                 \
  /* records ledger-accounted as expired (abrupt departure, lost */      \
  /* packet, no absorber) */                                             \
  X(handoff_records_expired, kSum, kChurn, kLower)                       \
  /* sent, not settled */                                                \
  X(handoff_records_in_flight, kSum, kChurn, kUnchanged)                 \
  /* records held by leaving hosts */                                    \
  X(records_at_departure, kSum, kChurn, kUnchanged)                      \
  /* nonzero when the churn subsystem ran (ChurnManager constructed); */ \
  /* gates the kChurn block as fault_plan_digest gates kFault */         \
  X(churn_active, kMax, kNone, kUnchanged)

// Engine-level execution statistics for one run: how much work the
// discrete-event core did and how fast the host executed it. Protocol
// metrics (RunMetrics) describe the simulated world; EngineStats describe
// the simulator itself — the bench reports emit both so perf PRs are
// measurable. The members are the rows of HLSRG_ENGINE_STATS.
struct EngineStats {
#define HLSRG_ENGINE_FIELD(type, name, merge, gate, better) type name = 0;
#define HLSRG_ENGINE_RATE(name, numerator)                        \
  [[nodiscard]] double name() const {                             \
    return wall_clock_sec > 0.0                                   \
               ? static_cast<double>(numerator) / wall_clock_sec  \
               : 0.0;                                             \
  }
  HLSRG_ENGINE_STATS(HLSRG_ENGINE_FIELD, HLSRG_ENGINE_RATE)
#undef HLSRG_ENGINE_FIELD
#undef HLSRG_ENGINE_RATE

  // Calls f(spec, key) for every row in report order. `key` points to the
  // data member of a field or to the member function of a rate;
  // std::invoke(key, stats) reads either.
  template <typename F>
  static void for_each_key(F&& f) {
#define HLSRG_ENGINE_FIELD(type, name, merge, gate, better)                \
  f(EngineSpec{#name, MergeRule::merge, EngineGate::gate, Better::better}, \
    &EngineStats::name);
#define HLSRG_ENGINE_RATE(name, numerator)                         \
  f(EngineSpec{#name, MergeRule::kDerived, EngineGate::kTiming,    \
               Better::kHigher},                                   \
    &EngineStats::name);
    HLSRG_ENGINE_STATS(HLSRG_ENGINE_FIELD, HLSRG_ENGINE_RATE)
#undef HLSRG_ENGINE_FIELD
#undef HLSRG_ENGINE_RATE
  }

  // Aggregates replicas, each field by its merge rule.
  void merge(const EngineStats& other);
};

// All metrics for one simulation run: the HLSRG_RUN_METRICS counters, the
// channel ledger and the query latency samples.
struct RunMetrics {
#define HLSRG_RUN_METRIC(name, merge, digest, better) std::uint64_t name = 0;
  HLSRG_RUN_METRICS(HLSRG_RUN_METRIC)
#undef HLSRG_RUN_METRIC

  // Per-kind channel conservation ledger (offered == delivered + dropped),
  // fed by the radio broadcast/unicast and wired paths that carry a Packet.
  PacketLedger channel;

  LatencyStat query_latency;

  // Calls f(spec, field) for every counter in report order; `field` is a
  // `std::uint64_t RunMetrics::*`.
  template <typename F>
  static void for_each_field(F&& f) {
#define HLSRG_RUN_METRIC(name, merge, digest, better)                          \
  f(MetricSpec{#name, MergeRule::merge, DigestGroup::digest, Better::better}, \
    &RunMetrics::name);
    HLSRG_RUN_METRICS(HLSRG_RUN_METRIC)
#undef HLSRG_RUN_METRIC
  }

  // Aggregates replicas: each counter by its merge rule; the ledger and the
  // latency samples pool.
  void merge(const RunMetrics& other);

  // Total control transmissions attributable to updates (Fig 3.2's metric).
  [[nodiscard]] std::uint64_t total_update_overhead() const {
    return update_packets_originated;
  }
  // Total transmissions attributable to queries (Fig 3.3's metric).
  [[nodiscard]] std::uint64_t total_query_overhead() const {
    return query_transmissions + wired_messages;
  }
  [[nodiscard]] double success_rate() const {
    return queries_issued == 0
               ? 0.0
               : static_cast<double>(queries_succeeded) /
                     static_cast<double>(queries_issued);
  }
  // Goodput against *offered* load: successes over everything submitted,
  // shed included. Falls back to success_rate() for runs that bypass the
  // admission seam (direct issue_query callers in tests).
  [[nodiscard]] double served_rate() const {
    return queries_offered == 0
               ? success_rate()
               : static_cast<double>(queries_succeeded) /
                     static_cast<double>(queries_offered);
  }
  // Success rate restricted to queries issued while a fault window was
  // active; falls back to the overall rate when no query overlapped a fault.
  [[nodiscard]] double availability() const {
    return fault_queries_issued == 0
               ? success_rate()
               : static_cast<double>(fault_queries_ok) /
                     static_cast<double>(fault_queries_issued);
  }
  // Mean time from a fault window clearing to the first query success at or
  // after the clearance; 0 when no finite window recovered.
  [[nodiscard]] double recovery_ms() const {
    return recovery_windows == 0
               ? 0.0
               : static_cast<double>(recovery_time_us) /
                     static_cast<double>(recovery_windows) * 1e-3;
  }
  // Fraction of handed-off location records that reached their successor /
  // absorber; 1 when no handoff ever carried a record.
  [[nodiscard]] double handoff_record_delivery_rate() const {
    return handoff_records_sent == 0
               ? 1.0
               : static_cast<double>(handoff_records_delivered) /
                     static_cast<double>(handoff_records_sent);
  }
};

}  // namespace hlsrg
