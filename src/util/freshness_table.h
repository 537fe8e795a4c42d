// Freshness tables: the newest record per key, evicted once older than an
// expiry horizon. This is the table every protocol keeps: HLSRG's L1/L2/L3
// location tables (paper 2.2.2), RLSMP's cell and cluster tables, FLOOD's
// position cache and the GPSR HELLO neighbor tables (the PositionTable /
// Purge() pair of ns-3 GPSR).
//
// Records live densely packed in ArenaTable pages (O(1) upsert/find/erase),
// and expiry runs off an ExpiryWheel armed once per live record (on insert,
// re-armed lazily at purge time when a surfaced record turns out fresh), so
// a purge costs O(surfaced items) instead of O(table) and the wheel holds
// ~one 16-byte item per record instead of one per update. The live record's
// timestamp always decides eviction with the full-scan predicate
// (time + expiry < now), so eviction sets and times equal a scan's.
//
// There is no iterator: snapshot() is the canonical key-sorted view used
// for wire payloads, neighbor lists and digests, and unsorted_records() is
// the cheap bulk view (dense arena order) for role handoffs and merges,
// where the receiver re-keys every record anyway.
#pragma once

#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/arena_table.h"
#include "util/expiry_wheel.h"

namespace hlsrg {

// Rec must expose a `SimTime time` member; KeyOf names the member holding
// its TaggedId key (the vehicle for location records).
template <typename Rec, auto KeyOf = &Rec::vehicle>
class FreshnessTable {
 public:
  using Key = std::remove_cvref_t<decltype(std::declval<const Rec&>().*KeyOf)>;

  // Inserts/overwrites if `rec` is newer than any existing entry. Only an
  // insert arms the wheel: updates just advance the live timestamp, and
  // purge() re-arms fresh records when their item surfaces. That keeps the
  // wheel at ~one item per live record instead of one per update — under
  // beacon-rate traffic the per-update items were the table's dominant
  // footprint (nothing expires inside a short run, so they never drained).
  void record(const Rec& rec) {
    bool inserted = false;
    Rec& slot = table_.find_or_insert(rec.*KeyOf, rec, &inserted);
    if (!inserted) {
      if (slot.time >= rec.time) return;
      slot = rec;
      return;
    }
    wheel_.note(arena_key_u64(rec.*KeyOf), rec.time.us());
  }

  void erase(Key k) { table_.erase(k); }

  [[nodiscard]] const Rec* find(Key k) const { return table_.find(k); }

  // Evicts entries older than `expiry` relative to `now`; returns count.
  // O(records whose armed time the cutoff passed), not O(table). An item
  // surfaces when the cutoff passes the time it was armed at; the LIVE
  // record's timestamp then decides. A record's armed time never exceeds
  // its live time, so `live < cutoff` implies its item surfaces in the
  // same drain — eviction sets and times are bit-identical to the full
  // scan's `time + expiry < now`. Fresh records re-arm at their current
  // timestamp (outside the drain: note() mutates the bucket list); erased
  // keys' stale items simply drop.
  std::size_t purge(SimTime now, SimTime expiry) {
    const std::int64_t cutoff = (now - expiry).us();
    std::size_t purged = 0;
    rearm_.clear();
    wheel_.drain(cutoff, [&](std::uint64_t key, std::int64_t /*armed*/) {
      const Key k{static_cast<typename Key::underlying_type>(key)};
      const Rec* rec = table_.find(k);
      if (rec == nullptr) return;
      if (rec->time.us() < cutoff) {
        table_.erase(k);
        ++purged;
      } else {
        rearm_.push_back(ExpiryWheel::Item{key, rec->time.us()});
      }
    });
    for (const ExpiryWheel::Item& it : rearm_) wheel_.note(it.key, it.time);
    return purged;
  }

  // Canonical key-sorted copy (wire payloads, neighbor lists, digests).
  [[nodiscard]] std::vector<Rec> snapshot() const { return table_.snapshot(); }

  // Bulk copy in dense order — no sort, single pass (role handoffs).
  [[nodiscard]] std::vector<Rec> unsorted_records() const {
    return table_.unsorted_records();
  }

  void merge(std::span<const Rec> records) {
    for (const Rec& r : records) record(r);
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] bool empty() const { return table_.empty(); }
  void clear() {
    table_.clear();
    wheel_.clear();
  }

  // clear() plus returning all capacity to the OS. For tables whose duty
  // has ended: an ex-center vehicle re-elected months later rebuilds from
  // hand-offs anyway, and at scale most vehicles are ex-centers — keeping
  // peak capacity per agent "for reuse" dominated bytes-per-vehicle.
  void release() {
    table_.release();
    wheel_.release();
    rearm_ = std::vector<ExpiryWheel::Item>{};
  }

  // Heap footprint: arena pages + key index + pending wheel items.
  [[nodiscard]] std::size_t bytes() const {
    return table_.bytes() + wheel_.bytes();
  }

 private:
  ArenaTable<Key, Rec> table_;
  ExpiryWheel wheel_;
  std::vector<ExpiryWheel::Item> rearm_;  // reused purge scratch
};

}  // namespace hlsrg
