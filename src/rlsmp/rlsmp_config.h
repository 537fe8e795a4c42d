// Tunables for the RLSMP baseline.
#pragma once

#include "sim/time.h"

namespace hlsrg {

struct RlsmpConfig {
  // Cell edge; matched to the radio range like the HLSRG L1 grids so the
  // comparison is apples-to-apples.
  double cell_size_m = 500.0;
  // Lattice offset relative to the map origin: half a cell puts arteries in
  // cell interiors (the generic lat/long-vs-street misalignment).
  double origin_offset_m = 250.0;
};

// "wait and aggregate query packets for a specific waiting time" before
// spiralling onward.
inline constexpr SimTime kRlsmpQueryWait = SimTime::from_sec(2.0);

}  // namespace hlsrg
