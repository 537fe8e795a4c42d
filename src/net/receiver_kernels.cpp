// Contraction stays off in this translation unit whatever the build flags
// (see the header). No code here reads the floating-point exception flags,
// so the compiler may assume nothing traps: that lets it turn the loss
// formula's clamps into vector selects. Neither option changes a value.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off", "no-trapping-math", "tree-vectorize", \
                     "vect-cost-model=dynamic")
#endif

#include "net/receiver_kernels.h"

#include <algorithm>
#include <cmath>

#include "net/radio.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HLSRG_RECEIVER_CLONES 1
#include <immintrin.h>
#else
#define HLSRG_RECEIVER_CLONES 0
#endif

namespace hlsrg {
namespace {

// The loss pass works in chunks of receivers, so its scratch lives on the
// stack. A multiple of the widest vector (8 doubles).
constexpr std::size_t kChunk = 64;

// In-place square roots of d[0, n), n a multiple of 8, one vector
// instruction per register width. The compiler does not vectorize
// std::sqrt while it may set errno; every variant is IEEE sqrt, correctly
// rounded, so all return the same values.
#if HLSRG_RECEIVER_CLONES
[[gnu::always_inline]] inline void sqrt_baseline(double* d, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 2) {
    _mm_store_pd(d + i, _mm_sqrt_pd(_mm_load_pd(d + i)));
  }
}
[[gnu::always_inline, gnu::target("avx2")]] inline void sqrt_avx2(
    double* d, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 4) {
    _mm256_store_pd(d + i, _mm256_sqrt_pd(_mm256_load_pd(d + i)));
  }
}
[[gnu::always_inline, gnu::target("avx512f")]] inline void sqrt_avx512f(
    double* d, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 8) {
    // The zero-masked form: GCC 12's _mm512_sqrt_pd trips
    // -Wmaybe-uninitialized inside its own header.
    _mm512_store_pd(d + i, _mm512_maskz_sqrt_pd(0xFF, _mm512_load_pd(d + i)));
  }
}
#else
inline void sqrt_baseline(double* d, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) d[i] = std::sqrt(d[i]);
}
#endif

// The kernel bodies, inlined into one function per instruction set.
[[gnu::always_inline]] inline std::int32_t count_body(const double* xs,
                                                      const double* ys,
                                                      std::size_t n, double px,
                                                      double py, double r2) {
  std::int32_t in_disc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - px;
    const double dy = ys[i] - py;
    in_disc += static_cast<std::int32_t>(dx * dx + dy * dy <= r2);
  }
  return in_disc;
}

template <typename SqrtRun>
[[gnu::always_inline]] inline void loss_body(
    const RadioConfig& cfg, double tx, double ty, const double* xs,
    const double* ys, const std::uint32_t* slots, const std::int32_t* density,
    std::size_t n, double* p, SqrtRun sqrt_run) {
  const RadioConfig c = cfg;  // a local copy cannot alias p
  alignas(64) double dist[kChunk];
  for (std::size_t at = 0; at < n; at += kChunk) {
    const std::size_t m = std::min(kChunk, n - at);
    // distance(tx, rx) is (tx - rx).norm(): x product first, then sqrt.
    for (std::size_t i = 0; i < m; ++i) {
      const double dx = tx - xs[slots[at + i]];
      const double dy = ty - ys[slots[at + i]];
      dist[i] = dx * dx + dy * dy;
    }
    const std::size_t padded = (m + 7) & ~std::size_t{7};
    std::fill(dist + m, dist + padded, 0.0);
    sqrt_run(dist, padded);
    for (std::size_t i = 0; i < m; ++i) {
      p[at + i] = hop_loss_probability(c, dist[i], density[at + i]);
    }
  }
}

#define HLSRG_RECEIVER_VARIANT(isa, attr)                                     \
  attr std::int32_t count_##isa(const double* xs, const double* ys,          \
                                std::size_t n, double px, double py,         \
                                double r2) {                                 \
    return count_body(xs, ys, n, px, py, r2);                                \
  }                                                                          \
  attr void loss_##isa(const RadioConfig& cfg, double tx, double ty,         \
                       const double* xs, const double* ys,                   \
                       const std::uint32_t* slots,                           \
                       const std::int32_t* density, std::size_t n,           \
                       double* p) {                                          \
    loss_body(cfg, tx, ty, xs, ys, slots, density, n, p, sqrt_##isa);        \
  }

HLSRG_RECEIVER_VARIANT(baseline, )
#if HLSRG_RECEIVER_CLONES
HLSRG_RECEIVER_VARIANT(avx2, [[gnu::target("avx2")]])
HLSRG_RECEIVER_VARIANT(avx512f, [[gnu::target("avx512f")]])
#endif
#undef HLSRG_RECEIVER_VARIANT

// Ordered by width: each variant's instruction set includes the previous.
constexpr ReceiverKernels kVariants[] = {
    {"baseline", count_baseline, loss_baseline},
#if HLSRG_RECEIVER_CLONES
    {"avx2", count_avx2, loss_avx2},
    {"avx512f", count_avx512f, loss_avx512f},
#endif
};

std::size_t host_variant_count() {
#if HLSRG_RECEIVER_CLONES
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2")) return 1;
  if (!__builtin_cpu_supports("avx512f")) return 2;
  return 3;
#else
  return 1;
#endif
}

}  // namespace

std::span<const ReceiverKernels> host_receiver_kernels() {
  static const std::size_t count = host_variant_count();
  return {kVariants, count};
}

const ReceiverKernels& receiver_kernels() {
  static const ReceiverKernels& widest = host_receiver_kernels().back();
  return widest;
}

}  // namespace hlsrg
