// Deterministic random number generation.
//
// Every stochastic decision in a run (mobility turns, radio loss, back-off
// draws) comes from an explicitly seeded generator, so a (scenario, seed)
// pair reproduces bit-identically. We use xoshiro256** seeded via SplitMix64
// — the reference-recommended pairing — rather than std::mt19937 because it
// is faster, smaller (32 bytes of state), and its streams split cleanly:
// mobility and protocol draw from independent streams so that changing the
// protocol cannot perturb vehicle trajectories (paired comparisons stay
// paired).
#pragma once

#include <cstdint>

#include "util/check.h"

namespace hlsrg {

// Named RNG stream ids. Every subsystem stream is split from the root
// generator under one of these tags; the numeric values are frozen (they
// feed SplitMix64 directly, so renumbering changes every digest in the
// repo). The determinism lint (tools/lint, rule `rng-discipline`) rejects
// `split(<bare integer>)` — a named id documents which subsystem owns the
// stream and keeps tag collisions impossible by construction, which is
// what lets per-shard streams merge deterministically once the engine
// shards by L3 region.
enum class RngStreamId : std::uint64_t {
  kMobility = 1,  // vehicle trajectories (turns, speeds, spawn jitter)
  kRadio = 2,     // per-reception loss draws
  kProtocol = 3,  // protocol back-off and election jitter
  kWorkload = 4,  // one-shot query schedule (World::schedule_workload)
  kFault = 5,     // fault-plan window edge jitter (src/fault)
  kOpenLoop = 6,  // Poisson / hotspot / ramped arrivals (src/service)
};

// Stable lower_snake name for traces and error messages.
[[nodiscard]] constexpr const char* rng_stream_name(RngStreamId id) {
  switch (id) {
    case RngStreamId::kMobility: return "mobility";
    case RngStreamId::kRadio: return "radio";
    case RngStreamId::kProtocol: return "protocol";
    case RngStreamId::kWorkload: return "workload";
    case RngStreamId::kFault: return "fault";
    case RngStreamId::kOpenLoop: return "open_loop";
  }
  return "unknown";
}

// SplitMix64: used only to expand a user seed into generator state.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: the workhorse generator.
class Rng {
 public:
  // Satisfy UniformRandomBitGenerator so <random> distributions also work.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }

  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    HLSRG_CHECK(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  // Uniform integer in [0, n). n must be > 0. Uses Lemire's method to avoid
  // modulo bias.
  std::uint64_t uniform_u64(std::uint64_t n) {
    HLSRG_CHECK(n > 0);
    const std::uint64_t x = next();
    // 128-bit multiply-shift; rejection step keeps the result unbiased.
    unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(n);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0ULL - n) % n;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(next()) *
            static_cast<unsigned __int128>(n);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    HLSRG_CHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    uniform_u64(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  // Bernoulli draw with success probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  // Derives an independent child stream. The named overload is the public
  // spelling — one RngStreamId per subsystem, enforced by the determinism
  // lint. The raw-tag overload stays for derived sub-streams whose tag is a
  // computed value (e.g. a per-shard offset), never a bare literal.
  Rng split(RngStreamId id) { return split(static_cast<std::uint64_t>(id)); }

  Rng split(std::uint64_t stream_tag) {
    SplitMix64 sm(next() ^ (0x6a09e667f3bcc909ULL + stream_tag));
    return Rng(sm.next());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace hlsrg
