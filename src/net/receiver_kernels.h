// Vector kernels of the radio's receiver pass: the exact contention-density
// count and the batched per-receiver loss probability.
//
// Both read node positions struct-of-arrays (the neighbor index's slot
// columns) and evaluate the same IEEE operations, in the same order, as the
// scalar code they replace, so every variant returns bit-identical results:
//   * count_in_disc:  (x - px) * (x - px) + (y - py) * (y - py) <= r2, the
//     x product first, exactly distance2() (geom/vec2.h);
//   * hop_loss:       hop_loss_probability(cfg, distance(tx, rx), n) per
//     receiver (net/radio.h), the one definition of the loss formula.
// Floating-point contraction is off inside the kernels whatever the build
// flags: fusing a product into an FMA skips one rounding and moves points
// that sit within an ulp of the range circle across it.
//
// Each kernel is compiled for AVX-512F, AVX2 and baseline x86-64 and the
// widest variant the CPU supports is picked once per process. Builds for
// other targets, or by compilers without the target attribute, compile the
// baseline variant only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hlsrg {

struct RadioConfig;

struct ReceiverKernels {
  const char* name;
  // Number of points i < n with (xs[i] - px)^2 + (ys[i] - py)^2 <= r2.
  std::int32_t (*count_in_disc)(const double* xs, const double* ys,
                                std::size_t n, double px, double py,
                                double r2);
  // p[i] = hop_loss_probability(cfg, |tx - rx_i|, density[i]) for the
  // receiver at (xs[slots[i]], ys[slots[i]]), i < n.
  void (*hop_loss)(const RadioConfig& cfg, double tx, double ty,
                   const double* xs, const double* ys,
                   const std::uint32_t* slots, const std::int32_t* density,
                   std::size_t n, double* p);
};

// The widest variant this CPU runs, chosen on first use.
[[nodiscard]] const ReceiverKernels& receiver_kernels();

// Every variant this CPU runs, baseline first. Tests compare them.
[[nodiscard]] std::span<const ReceiverKernels> host_receiver_kernels();

}  // namespace hlsrg
