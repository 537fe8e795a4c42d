// FNV-1a, 64-bit: the hash behind the run state digest (harness/digest.h)
// and the fault-plan digest (fault/fault_plan.h). Each value mixes one byte
// at a time, least significant first, so a digest does not depend on the
// host's byte order.
#pragma once

#include <bit>
#include <cstdint>

namespace hlsrg {

class Fnv {
 public:
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ (v & 0xff)) * kPrime;
      v >>= 8;
    }
  }
  void mix_i64(std::int64_t v) { mix_u64(static_cast<std::uint64_t>(v)); }
  void mix_double(double v) { mix_u64(std::bit_cast<std::uint64_t>(v)); }
  void mix_bool(bool v) { mix_u64(v ? 1 : 0); }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace hlsrg
