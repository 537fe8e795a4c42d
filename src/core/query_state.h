// One agent's bookkeeping for the queries it takes part in, shared by the
// HLSRG, RLSMP and FLOOD vehicle agents and the HLSRG RSUs (DESIGN.md
// §15): armed back-off elections, own-query ACK timeouts, and one-shot
// dedup marks.
//
// Timers are few at once: one unsorted vector, linear find, swap-pop
// erase. A mark is one u64, the key in the low 56 bits and its kind in the
// high byte, in one of two sorted generations. Sim time is cut into epochs
// of the protocol's mark horizon H; an access in the next epoch makes the
// current generation the previous one, an access two or more epochs later
// drops both. A mark thus lives at least H and at most 2H, with no event
// and no timestamp of its own. Each protocol derives H so that no copy of
// a marked key can arrive after it; within H a mark answers exactly as an
// insert-only set would.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "util/check.h"

namespace hlsrg {

class QueryState {
 public:
  enum class Mark : std::uint8_t {
    kSettled,
    kRelayed,
    kAnswered,
    kNotifyForwarded,
    kBatchRelayed,
    kLookedUp,
  };

  // Epoch of `now` for marks with horizon `horizon`.
  [[nodiscard]] static std::int64_t epoch(SimTime now, SimTime horizon) {
    HLSRG_CHECK(horizon > SimTime{});
    return now.us() / horizon.us();
  }

  // --- elections, keyed like their marks ------------------------------------
  // True unless the election under `key` is armed or settled.
  [[nodiscard]] bool election_open(std::uint64_t key, std::int64_t epoch) {
    return find(tag(kElection, key)) == timers_.size() &&
           !marked(Mark::kSettled, key, epoch);
  }
  void arm_election(std::uint64_t key, EventHandle timer) {
    arm(tag(kElection, key), timer, 0);
  }
  // Marks the election settled; returns its armed timer, if any, to cancel.
  std::optional<EventHandle> settle_election(std::uint64_t key,
                                             std::int64_t epoch) {
    mark(Mark::kSettled, key, epoch);
    return disarm(tag(kElection, key));
  }

  // --- own queries awaiting an ACK, by query id -----------------------------
  void arm_retry(std::uint64_t qid, EventHandle timeout, int attempt = 1) {
    arm(tag(kRetry, qid), timeout, attempt);
  }
  // Attempt whose ACK timeout is armed; 0 when none.
  [[nodiscard]] int retry_attempt(std::uint64_t qid) const {
    const std::size_t i = find(tag(kRetry, qid));
    return i == timers_.size() ? 0 : timers_[i].attempt;
  }
  // Forgets the timeout; returns it, when one was armed, to cancel.
  std::optional<EventHandle> disarm_retry(std::uint64_t qid) {
    return disarm(tag(kRetry, qid));
  }

  // --- one-shot marks -------------------------------------------------------
  // Sets the mark in `epoch`; true iff it was not already set.
  bool mark(Mark kind, std::uint64_t key, std::int64_t epoch) {
    rotate(epoch);
    const std::uint64_t k = tag(kind, key);
    if (std::binary_search(prev_.begin(), prev_.end(), k)) return false;
    auto it = std::lower_bound(cur_.begin(), cur_.end(), k);
    if (it != cur_.end() && *it == k) return false;
    cur_.insert(it, k);
    return true;
  }

  [[nodiscard]] bool marked(Mark kind, std::uint64_t key, std::int64_t epoch) {
    rotate(epoch);
    const std::uint64_t k = tag(kind, key);
    return std::binary_search(cur_.begin(), cur_.end(), k) ||
           std::binary_search(prev_.begin(), prev_.end(), k);
  }

  // Marks held in both generations.
  [[nodiscard]] std::size_t marks() const { return cur_.size() + prev_.size(); }

 private:
  enum Timer : std::uint8_t { kElection, kRetry };
  struct Armed {
    std::uint64_t key;  // timer kind in the high byte
    EventHandle timer;
    int attempt;
  };

  template <typename Kind>
  [[nodiscard]] static std::uint64_t tag(Kind kind, std::uint64_t key) {
    HLSRG_CHECK(key >> 56 == 0);
    return key | (static_cast<std::uint64_t>(kind) << 56);
  }

  // Index of the timer under `k`; timers_.size() when none.
  [[nodiscard]] std::size_t find(std::uint64_t k) const {
    std::size_t i = 0;
    while (i < timers_.size() && timers_[i].key != k) ++i;
    return i;
  }

  void arm(std::uint64_t k, EventHandle timer, int attempt) {
    const std::size_t i = find(k);
    if (i == timers_.size()) timers_.emplace_back();
    timers_[i] = Armed{k, timer, attempt};
  }

  std::optional<EventHandle> disarm(std::uint64_t k) {
    const std::size_t i = find(k);
    if (i == timers_.size()) return std::nullopt;
    const EventHandle timer = timers_[i].timer;
    timers_[i] = timers_.back();
    timers_.pop_back();
    return timer;
  }

  void rotate(std::int64_t epoch) {
    if (epoch == epoch_) return;
    if (epoch == epoch_ + 1) {
      prev_.swap(cur_);
      cur_.clear();
    } else {
      prev_ = {};
      cur_ = {};
    }
    epoch_ = epoch;
  }

  std::vector<Armed> timers_;
  std::vector<std::uint64_t> cur_;
  std::vector<std::uint64_t> prev_;
  std::int64_t epoch_ = 0;
};

}  // namespace hlsrg
