// Hierarchical location-table consistency auditor (HLSRG worlds only).
//
// Checks every location table in the running protocol against invariants
// the collection pipeline guarantees by construction:
//  - entry timestamps are never in the future and never negative;
//  - grid coordinates stored in entries are within their level's range;
//  - entries are bounded-stale: no older than the level expiry plus two
//    purge periods (tables purge lazily on their periodic timers, so
//    entries age past the expiry only until the next tick);
//  - tables live only where their level does (no L3 summaries on an L2 RSU
//    and vice versa; grid-center L1 tables only while the vehicle holds
//    center duty);
//  - summarization: a fresh full record cached at an L3 RSU always has a
//    summary-table entry at least as new (full and thinned tables are
//    written together, newest-wins). An L2 RSU keeps no summary table: its
//    summaries are its full records thinned, so the law holds by
//    construction there.
//
// Deliberately NOT checked, because radio overhearing makes them unsound:
// that a summary's L1/L2 grid is a child of the recording RSU's cell (RSUs
// hear updates broadcast from adjacent cells), and any cross-RSU timestamp
// ordering (an L3 RSU can hear an update its child L2 never received).
#pragma once

#include "audit/auditor.h"

namespace hlsrg {

class TableAuditor final : public Auditor {
 public:
  [[nodiscard]] const char* name() const override { return "table"; }
  void check(const AuditScope& scope, AuditReport* report) const override;
};

}  // namespace hlsrg
