#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace hlsrg {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t i = free_slots_.back();
    free_slots_.pop_back();
    return i;
  }
  if (slot_count_ % kChunkSlots == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return slot_count_++;
}

void EventQueue::release_slot(std::uint32_t i) {
  Slot& s = slot(i);
  s.seq = 0;
  s.action.reset();
  free_slots_.push_back(i);
}

EventHandle EventQueue::schedule_at(SimTime when, Action action) {
  HLSRG_CHECK_MSG(when >= now_, "cannot schedule into the past");
  HLSRG_CHECK(action != nullptr);
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t i = acquire_slot();
  Slot& s = slot(i);
  s.seq = seq;
  s.action = std::move(action);
  heap_.push(Entry{when, seq, i});
  ++live_;
  peak_depth_ = std::max(peak_depth_, live_);
  return EventHandle{seq, i};
}

bool EventQueue::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  if (handle.slot_ >= slot_count_) return false;
  // The slot may have been recycled for a newer event; the seq match proves
  // the handle's event is the one still pending.
  if (slot(handle.slot_).seq != handle.seq_) return false;
  release_slot(handle.slot_);
  --live_;
  ++events_cancelled_;
  return true;
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && slot(heap_.top().slot).seq != heap_.top().seq) {
    heap_.pop();
  }
}

SimTime EventQueue::next_time() const {
  drop_cancelled();
  return heap_.empty() ? SimTime::max() : heap_.top().when;
}

bool EventQueue::run_one() {
  drop_cancelled();
  if (heap_.empty()) return false;
  const Entry entry = heap_.top();
  heap_.pop();
  Slot& s = slot(entry.slot);
  HLSRG_DCHECK(s.seq == entry.seq);
  // The action runs in place: chunks never move, and the slot joins the
  // freelist only afterwards, so nothing the action schedules reuses it.
  // Clearing seq first makes a cancel of the running event a no-op.
  s.seq = 0;
  --live_;
  HLSRG_CHECK(entry.when >= now_);
  now_ = entry.when;
  ++events_dispatched_;
  s.action();
  release_slot(entry.slot);
  return true;
}

std::size_t EventQueue::run_until(SimTime until) {
  std::size_t dispatched = 0;
  while (next_time() <= until) {
    if (!run_one()) break;
    ++dispatched;
  }
  if (now_ < until) now_ = until;
  return dispatched;
}

}  // namespace hlsrg
