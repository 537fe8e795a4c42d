// Freshness tables: the newest record per key, evicted once older than an
// expiry horizon. This is the table every protocol keeps: HLSRG's L1/L2/L3
// location tables (paper 2.2.2), RLSMP's cell and cluster tables, FLOOD's
// position cache and the GPSR HELLO neighbor tables (the PositionTable /
// Purge() pair of ns-3 GPSR).
//
// Records live in one std::vector in dense order: an insert appends, an
// erase swap-pops the last record into the hole, so the vector never
// fragments and insert/find/erase are O(1). The key is read from the record
// through KeyOf, never stored beside it. A key index maps key -> dense
// slot; it has two representations, chosen by bytes alone:
//  - hashed: an open-addressing, tombstone-aware OpenAddressMap, ~17 B
//    per slot at <= 70% load. Every table starts here.
//  - direct: a std::vector<uint32_t> indexed by the key itself, 4 B per
//    key value up to the largest key held. An insert switches the table to
//    it once 4 B x (max key + 1) <= the hash index's bytes. With dense
//    keys (VehicleId) that is a table holding a sizeable share of the key
//    space: an L3 RSU table that gossip fills with most of the fleet.
//    Per-vehicle L1 tables and L2 tables hold a small share and stay
//    hashed. A key beyond the direct span grows it only while the span
//    stays within what a hash index of the grown population would take;
//    a farther key rebuilds the hash index, so no key allocates without
//    bound. clear() keeps the current representation; release() returns
//    the table to an empty hash index.
// The index only maps keys to dense slots, so dense order — and with it
// unsorted_records(), purges and merges — is the same under either one.
//
// Expiry is a linear sweep behind a skip test, like the Purge() of ns-3
// GPSR's PositionTable. The table keeps min_time_, a lower bound on its
// records' times: an insert lowers it, while an overwrite only raises a
// record's time and an erase only removes records, so neither can break
// it. purge() returns at once while the cutoff is at or below the bound,
// and otherwise makes one pass that evicts with the predicate
// time + expiry < now and then tightens the bound to the survivors' minimum.
// A sweep is cheap where it runs: every periodic purge is followed by an
// O(table) copy or sort of the same table anyway.
//
// A find() pointer stays valid until the next record(), merge(), erase()
// or purge() on the same table: an insert may reallocate the vector, and
// an erase moves the last record. Callers that send or serve a found
// record take a copy first.
//
// There is no iterator: snapshot() is the canonical key-sorted view used
// for wire payloads, neighbor lists and digests, and unsorted_records() is
// the cheap bulk view (dense order) for role handoffs and merges, where the
// receiver re-keys every record anyway.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/open_address_map.h"

namespace hlsrg {

// Rec must expose a `SimTime time` member; KeyOf names the member holding
// its TaggedId key (the vehicle for location records).
template <typename Rec, auto KeyOf = &Rec::vehicle>
class FreshnessTable {
  static_assert(std::is_trivially_copyable_v<Rec>);

 public:
  using Key = std::remove_cvref_t<decltype(std::declval<const Rec&>().*KeyOf)>;

  // Inserts/overwrites if `rec` is newer than any existing entry. Only an
  // insert can lower min_time_; an overwrite only ever raises a time.
  void record(const Rec& rec) {
    const std::uint64_t k = key_of(rec);
    if (!direct_.empty() && !extend_direct(k)) to_hashed();
    std::uint32_t* const slot =
        direct_.empty() ? &index_.find_or_insert(k, kNoSlot)
                        : &direct_[static_cast<std::size_t>(k)];
    if (*slot != kNoSlot) {
      Rec& live = records_[*slot];
      if (live.time < rec.time) live = rec;
      return;
    }
    *slot = static_cast<std::uint32_t>(records_.size());
    records_.push_back(rec);
    if (direct_.empty()) {
      max_key_ = std::max(max_key_, k);
      if (max_key_ < index_.bytes() / sizeof(std::uint32_t)) to_direct();
    }
    min_time_ = std::min(min_time_, rec.time.us());
  }

  // Removes the record for `k`. The last record swap-pops into the hole,
  // so one unrelated record moves.
  void erase(Key k) {
    const std::uint64_t key = k.value();
    std::uint32_t* slot = slot_of(key);
    if (slot == nullptr) return;
    const std::uint32_t hole = *slot;
    if (direct_.empty()) {
      index_.erase(key);
    } else {
      *slot = kNoSlot;
    }
    if (hole != records_.size() - 1) {
      records_[hole] = records_.back();
      *slot_of(key_of(records_[hole])) = hole;
    }
    records_.pop_back();
  }

  [[nodiscard]] const Rec* find(Key k) const {
    const std::uint32_t* slot = slot_of(k.value());
    return slot == nullptr ? nullptr : &records_[*slot];
  }

  // Evicts entries older than `expiry` relative to `now`; returns count.
  // O(1) while no record can be older than the cutoff, else one O(table)
  // pass. Eviction sets and times are those of a scan on every call.
  std::size_t purge(SimTime now, SimTime expiry) {
    const std::int64_t cutoff = (now - expiry).us();
    if (cutoff <= min_time_) return 0;
    const std::size_t before = records_.size();
    min_time_ = kNoTime;
    for (std::size_t i = 0; i < records_.size();) {
      const std::int64_t time = records_[i].time.us();
      if (time < cutoff) {
        erase(records_[i].*KeyOf);  // swap-pops an unvisited record into i
      } else {
        min_time_ = std::min(min_time_, time);
        ++i;
      }
    }
    return before - records_.size();
  }

  // Canonical key-sorted copy (wire payloads, neighbor lists, digests).
  [[nodiscard]] std::vector<Rec> snapshot() const {
    std::vector<Rec> out = records_;
    std::sort(out.begin(), out.end(), [](const Rec& a, const Rec& b) {
      return a.*KeyOf < b.*KeyOf;
    });
    return out;
  }

  // Bulk copy in dense order — no sort, single pass (role handoffs).
  [[nodiscard]] std::vector<Rec> unsorted_records() const { return records_; }

  void merge(std::span<const Rec> records) {
    for (const Rec& r : records) record(r);
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  // Drops every entry. Record and index capacity are kept for reuse, and
  // so is the index representation.
  void clear() {
    records_.clear();
    index_.clear();
    std::fill(direct_.begin(), direct_.end(), kNoSlot);
    max_key_ = 0;
    min_time_ = kNoTime;
  }

  // clear() plus returning all capacity to the OS. For tables whose duty
  // has ended: an ex-center vehicle re-elected months later rebuilds from
  // hand-offs anyway, and at scale most vehicles are ex-centers — keeping
  // peak capacity per agent "for reuse" dominated bytes-per-vehicle.
  void release() {
    records_ = std::vector<Rec>{};
    index_.release();
    direct_ = std::vector<std::uint32_t>{};
    max_key_ = 0;
    min_time_ = kNoTime;
  }

  // Heap footprint: record vector + key index.
  [[nodiscard]] std::size_t bytes() const {
    return records_.capacity() * sizeof(Rec) + index_.bytes() +
           direct_.capacity() * sizeof(std::uint32_t);
  }

  // True while the key index is the direct slot array (tests).
  [[nodiscard]] bool direct_indexed() const { return !direct_.empty(); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  // min_time_ of an empty table: above every time, so purge() skips.
  static constexpr std::int64_t kNoTime =
      std::numeric_limits<std::int64_t>::max();

  static std::uint64_t key_of(const Rec& rec) { return (rec.*KeyOf).value(); }

  // The index slot holding `k`'s dense slot, or nullptr if absent.
  [[nodiscard]] const std::uint32_t* slot_of(std::uint64_t k) const {
    if (direct_.empty()) return index_.find(k);
    if (k >= direct_.size()) return nullptr;
    const std::uint32_t* slot = &direct_[static_cast<std::size_t>(k)];
    return *slot == kNoSlot ? nullptr : slot;
  }
  [[nodiscard]] std::uint32_t* slot_of(std::uint64_t k) {
    return const_cast<std::uint32_t*>(std::as_const(*this).slot_of(k));
  }

  // Direct mode: makes `k` addressable, growing the span if it stays within
  // the bytes a hash index of one more record would take. False when `k`
  // is farther than that; the caller then falls back to hashing.
  bool extend_direct(std::uint64_t k) {
    if (k < direct_.size()) return true;
    const std::size_t limit =
        OpenAddressMap<std::uint64_t, std::uint32_t>::bytes_for(
            records_.size() + 1) /
        sizeof(std::uint32_t);
    if (k >= limit) return false;
    const auto span = static_cast<std::size_t>(k) + 1;
    direct_.reserve(std::min(limit, std::max(span, 2 * direct_.size())));
    direct_.resize(span, kNoSlot);
    return true;
  }

  // Rebuilds the index as a direct slot array spanning [0, max_key_].
  void to_direct() {
    direct_.assign(static_cast<std::size_t>(max_key_) + 1, kNoSlot);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      direct_[static_cast<std::size_t>(key_of(records_[i]))] =
          static_cast<std::uint32_t>(i);
    }
    index_.release();
  }

  // Rebuilds the index as a hash map over the current records.
  void to_hashed() {
    direct_ = std::vector<std::uint32_t>{};
    max_key_ = 0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const std::uint64_t k = key_of(records_[i]);
      index_.find_or_insert(k, static_cast<std::uint32_t>(i));
      max_key_ = std::max(max_key_, k);
    }
  }

  std::vector<Rec> records_;  // dense order: append, swap-pop
  // Hashed key index; empty (released) while direct_ is in use.
  OpenAddressMap<std::uint64_t, std::uint32_t> index_;
  // Direct key index: direct_[key] = dense slot or kNoSlot. Non-empty iff
  // the table is direct-indexed.
  std::vector<std::uint32_t> direct_;
  // Largest key inserted into the hashed index since the last clear() or
  // release().
  std::uint64_t max_key_ = 0;
  // Lower bound on every record's time (us); kNoTime when empty.
  std::int64_t min_time_ = kNoTime;
};

}  // namespace hlsrg
