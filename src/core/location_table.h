// Location tables with per-level schemas and freshness expiry (paper 2.2.2).
//
// L1 tables live on vehicles dwelling at grid centers and hold full records.
// RSUs hold full records in an L1Table too; an L3 RSU adds an L3Table of
// thinning summaries. An L2 RSU's {vehicle, time, sender L1 grid} summaries
// are its full records thinned when read (HlsrgRsuAgent::l2_summaries), so
// they need no table of their own. All tables evict entries whose last
// update is older than the level's expiry (2.2 min for L1/L2, 4.4 min for
// L3 — "about 1000 m" / "about 2000 m" of driving). The tables share the
// FreshnessTable that RLSMP, FLOOD and the HELLO beacons use as well
// (util/freshness_table.h).
#pragma once

#include "core/messages.h"
#include "util/freshness_table.h"

namespace hlsrg {

// L1: full records, keyed by vehicle.
class L1Table : public FreshnessTable<L1Record> {};

// L3: {vehicle, time, sender L2 RSU, owning L3 region}.
class L3Table : public FreshnessTable<L3Summary> {};

}  // namespace hlsrg
