// Discrete-event queue with deterministic ordering.
//
// Events at equal timestamps are dispatched in scheduling order (FIFO via a
// monotonically increasing sequence number). Without the tie-break, heap
// order for equal keys would be unspecified and runs would not reproduce.
//
// Actions live in a slab of small-buffer-optimized callback slots recycled
// through a freelist, so steady-state schedule/cancel/pop never allocate
// (the old design kept an unordered_map<seq, std::function> beside the heap
// and paid a node plus a closure allocation per event). The slab grows in
// fixed chunks of kChunkSlots slots that never move, so an action runs in
// its own slot. No chunk is large enough for glibc to serve it by mmap, so
// building a World reuses heap pages instead of mapping and faulting fresh
// ones for a growing slab. The heap holds (time, seq, slot) triples; a
// handle remembers both its slot and its seq, and since seqs are never
// reused a recycled slot simply fails the seq match — cancel keeps its
// exact semantics: it returns true iff the event was still pending, and a
// cancelled heap entry is skipped lazily at pop time.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/time.h"
#include "util/small_fn.h"

namespace hlsrg {

// Handle to a scheduled event; lets callers cancel timers (e.g., an ACK
// arriving cancels the pending query-timeout event).
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return seq_ != 0; }

 private:
  friend class EventQueue;
  EventHandle(std::uint64_t seq, std::uint32_t slot)
      : seq_(seq), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class EventQueue {
 public:
  // Sized so a Slot (seq + callback) spans two cache lines; captures beyond
  // this spill to the heap (see util/small_fn.h).
  using Action = SmallFn<104>;

  // Schedules `action` at absolute time `when`. `when` must not be earlier
  // than the current simulation time.
  EventHandle schedule_at(SimTime when, Action action);

  // Cancels a previously scheduled event. Returns true iff the event was
  // still pending; cancelling a fired or already-cancelled event is a no-op.
  bool cancel(EventHandle handle);

  // Pops and runs the earliest pending event. Returns false if none remain.
  bool run_one();

  // Runs events until none remain at or before `until` (events exactly at
  // `until` are run), then advances the clock to `until`. Returns the number
  // of events dispatched.
  std::size_t run_until(SimTime until);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // --- engine statistics (bench reports) -----------------------------------
  // Events dispatched (run, not cancelled) since construction.
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return events_dispatched_;
  }
  // Events scheduled since construction (includes later-cancelled ones).
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return next_seq_ - 1;
  }
  // Events cancelled before firing. Together with the other counters this
  // closes the queue's conservation law, which the conservation auditor
  // checks: scheduled == dispatched + cancelled + pending.
  [[nodiscard]] std::uint64_t events_cancelled() const {
    return events_cancelled_;
  }
  // High-water mark of pending (uncancelled) events.
  [[nodiscard]] std::size_t peak_depth() const { return peak_depth_; }

  // Time of the earliest pending event; SimTime::max() when empty.
  [[nodiscard]] SimTime next_time() const;

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  // One slab cell: `seq` identifies the event currently occupying the cell
  // (0 = free) and disambiguates stale heap entries and handles after reuse.
  struct Slot {
    std::uint64_t seq = 0;
    Action action;
  };

  static constexpr std::uint32_t kChunkSlots = 256;

  [[nodiscard]] Slot& slot(std::uint32_t i) const {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t i);

  // Pops heap entries whose slots were cancelled (lazy deletion).
  void drop_cancelled() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_dispatched_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::size_t peak_depth_ = 0;
};

}  // namespace hlsrg
