// Determinism digests: a 64-bit FNV-1a hash over a replica's final state.
//
// Two runs of the same (scenario, protocol, seed) must end in bit-identical
// simulation state regardless of how many host threads ran the replica set —
// replicas share no mutable state, so thread count can only change digests
// if something leaks between them (a shared RNG, a global, a data race). The
// digest walks simulated behaviour only: the simulation clock, per-vehicle
// kinematic state, the protocol metrics with every per-kind ledger row and
// every query latency sample, and every protocol table: HLSRG's L1/L2/L3
// tables, RLSMP's leader flags and cell/cluster tables, FLOOD's caches, and
// the HELLO neighbor tables when beacons are on. Engine
// bookkeeping (events scheduled, dispatched, cancelled or pending) is left
// out, so a change to how work is scheduled keeps the digest; EngineStats
// reports those counts. Host-side measurements like wall-clock time are
// excluded by construction.
#pragma once

#include <cstdint>
#include <vector>

namespace hlsrg {

class World;

// Digest of `world`'s current deterministic state.
[[nodiscard]] std::uint64_t state_digest(World& world);

// Index of the first position where the digest vectors differ (in value or
// length); returns SIZE_MAX when they match.
[[nodiscard]] std::size_t first_digest_mismatch(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b);

}  // namespace hlsrg
