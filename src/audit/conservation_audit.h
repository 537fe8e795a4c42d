// Counter conservation-law auditor.
//
// The simulator's counters are not independent gauges: they are linked by
// exact accounting identities that hold at every instant the event loop is
// between actions. This auditor checks them:
//  - event queue:  scheduled == dispatched + cancelled + pending, and the
//    earliest pending event is never in the past;
//  - packet channel, per kind:  offered == delivered + dropped (in-flight
//    packets are pending events, so they live in the queue identity, not
//    this one), with radio_drops + wired_drops equal to the ledger's total
//    drops (every drop path is ledgered, frame paths included);
//  - GPSR: the failure causes (no neighbor, empty delivery disc, face
//    loop, hop cap, link lost) sum to gpsr_failures;
//  - queries:  issued == succeeded + failed + outstanding.
#pragma once

#include "audit/auditor.h"

namespace hlsrg {

class ConservationAuditor final : public Auditor {
 public:
  [[nodiscard]] const char* name() const override { return "conservation"; }
  void check(const AuditScope& scope, AuditReport* report) const override;
};

}  // namespace hlsrg
