// QueryAdmission: the single entry point for query issuance.
//
// Every query submission — the scenario workload, the open-loop
// generator, and (via LocationService::admission()) the protocol's
// ACK-timeout retry path — funnels through one object so offered load,
// shedding, and the cached-serve fast path are accounted in exactly one
// place. Shed work is never silent: it lands in RunMetrics
// (queries_shed / retries_shed), in the PacketLedger's shed column under
// the protocol's query kind, and as a kShed instant span, and the
// ConservationAuditor reconciles all three.
//
// Header-only on purpose: src/core (vehicle retry path) and src/harness
// both use it, and a .cpp here would cycle the core <-> service libraries.
#pragma once

#include <cstddef>
#include <optional>

#include "core/location_service.h"
#include "service/service_config.h"
#include "sim/simulator.h"
#include "util/tagged_id.h"

namespace hlsrg {

class QueryAdmission {
 public:
  QueryAdmission(Simulator& sim, LocationService& svc,
                 const ServiceTierConfig& cfg)
      : sim_(&sim), svc_(&svc), cfg_(cfg) {
    svc.set_admission(this);
  }

  // Submits a query for admission. Returns the tracked query id, or nullopt
  // when admission shed it (the query was counted but never issued).
  std::optional<QueryTracker::QueryId> submit(VehicleId src, VehicleId dst) {
    RunMetrics& m = sim_->metrics();
    ++m.queries_offered;
    update_overload();
    if (overloaded_) {
      ++m.queries_shed;
      m.channel.add_shed(static_cast<int>(svc_->query_kind()));
      if (RegionTelemetry* regions = sim_->regions()) {
        ++regions->at(regions->region_of(svc_->vehicle_position(src)))
              .queries_shed;
      }
      sim_->instant_span(SpanKind::kShed, SpanStatus::kFailed, src.value(),
                         dst.value(), Vec2{}, kNoQuery, -1, "query");
      return std::nullopt;
    }
    if (cfg_.caching) {
      if (auto cached = svc_->serve_cached(src, dst)) return cached;
    }
    return svc_->issue_query(src, dst);
  }

  // Consulted by the protocol before re-sending a timed-out request. False
  // means the retry was shed — the caller must fail the query immediately so
  // it settles (shed work never strands a query).
  [[nodiscard]] bool admit_retry(QueryTracker::QueryId id, int attempt) {
    update_overload();
    if (!overloaded_) return true;
    RunMetrics& m = sim_->metrics();
    ++m.retries_shed;
    m.channel.add_shed(static_cast<int>(svc_->query_kind()));
    if (RegionTelemetry* regions = sim_->regions()) {
      ++regions
            ->at(regions->region_of(
                svc_->vehicle_position(svc_->tracker().source_of(id))))
            .queries_shed;
    }
    sim_->instant_span(SpanKind::kShed, SpanStatus::kFailed,
                       svc_->tracker().source_of(id).value(),
                       svc_->tracker().target_of(id).value(), Vec2{}, id, -1,
                       "retry", attempt);
    return false;
  }

  [[nodiscard]] bool overloaded() const { return overloaded_; }
  [[nodiscard]] const ServiceTierConfig& config() const { return cfg_; }

 private:
  // Hysteresis: enter overload at the bound, leave at half of it, and tell
  // the protocol about each edge so it can shed secondary radio work too.
  void update_overload() {
    if (cfg_.max_outstanding == 0) return;
    const std::size_t out = svc_->tracker().outstanding();
    if (!overloaded_ && out >= cfg_.max_outstanding) {
      overloaded_ = true;
      svc_->on_overload(true);
    } else if (overloaded_ && out <= cfg_.max_outstanding / 2) {
      overloaded_ = false;
      svc_->on_overload(false);
    }
  }

  Simulator* sim_;
  LocationService* svc_;
  ServiceTierConfig cfg_;
  bool overloaded_ = false;
};

}  // namespace hlsrg
