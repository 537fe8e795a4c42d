// Tunables for the flooding-based baseline.
#pragma once

#include "sim/time.h"

namespace hlsrg {

struct FloodConfig {
  // A vehicle floods a fresh location packet after driving this far since
  // its last flood (DREAM-style distance-triggered dissemination).
  double update_distance_m = 400.0;
};

// Source gives up when no ACK arrives within this deadline.
inline constexpr SimTime kFloodAckTimeout = SimTime::from_sec(10.0);

}  // namespace hlsrg
