// Flat (vector-backed) associative containers.
//
// FlatTable: a small sorted-vector map keyed by a TaggedId. Location tables
// hold a few hundred entries that are scanned far more often than they are
// mutated (every query checks the table; expiry sweeps walk it). A sorted
// std::vector beats node-based maps here: one allocation, contiguous scans,
// O(log n) lookup (Core Guidelines Per.14/Per.16/Per.19).
//
// OpenAddressMap: a linear-probing hash map over trivially copyable keys and
// values for hot lookup paths (the ArenaTable key index, the geocast
// flood's seen-node map). One contiguous slot array plus a one-byte state
// array, power-of-two capacity. Erase writes a tombstone; the load factor
// counts tombstones, so heavy erase churn triggers a compacting rehash
// instead of degrading probes toward O(capacity).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hlsrg {

template <typename Key, typename Value>
class FlatTable {
 public:
  using Entry = std::pair<Key, Value>;
  using iterator = typename std::vector<Entry>::iterator;
  using const_iterator = typename std::vector<Entry>::const_iterator;

  // Inserts or overwrites the value for `key`. Returns true if inserted.
  bool upsert(Key key, Value value) {
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) {
      it->second = std::move(value);
      return false;
    }
    entries_.insert(it, Entry{key, std::move(value)});
    return true;
  }

  // Returns a pointer to the value for `key`, or nullptr.
  [[nodiscard]] const Value* find(Key key) const {
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return &it->second;
    return nullptr;
  }

  [[nodiscard]] Value* find(Key key) {
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return &it->second;
    return nullptr;
  }

  // Removes the entry for `key`; returns true if it existed.
  bool erase(Key key) {
    auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) return false;
    entries_.erase(it);
    return true;
  }

  // Removes every entry for which pred(key, value) is true; returns count.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    auto it = std::remove_if(entries_.begin(), entries_.end(),
                             [&](const Entry& e) {
                               return pred(e.first, e.second);
                             });
    const auto n = static_cast<std::size_t>(entries_.end() - it);
    entries_.erase(it, entries_.end());
    return n;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  // Heap footprint of the entry array (capacity, not size).
  [[nodiscard]] std::size_t bytes() const {
    return entries_.capacity() * sizeof(Entry);
  }
  void clear() { entries_.clear(); }

  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }

 private:
  [[nodiscard]] const_iterator lower_bound(Key key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& e, Key k) { return e.first < k; });
  }
  [[nodiscard]] iterator lower_bound(Key key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& e, Key k) { return e.first < k; });
  }

  std::vector<Entry> entries_;
};

// Mixes a 64-bit key into a table index (SplitMix64 finalizer); good enough
// for packed coordinates and ids, and fully deterministic.
struct U64KeyHash {
  [[nodiscard]] std::uint64_t operator()(std::uint64_t k) const {
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
    return k ^ (k >> 31);
  }
};

// Open-addressing hash map: linear probing, power-of-two capacity, grows at
// ~70% load counting tombstones. A one-byte state array distinguishes
// empty / full / tombstone slots, so the whole key space is usable (packed
// cell coordinates hit every bit pattern — PR 5 reserved a sentinel key and
// parked it in a side slot; the state array removes that special case).
// Erase tombstones the slot; when the occupancy trigger fires and live
// entries alone are under the load limit, the rehash compacts in place at
// the same capacity instead of doubling, so erase-heavy churn (a long-lived
// neighbor-index cell map) cannot degrade probes toward O(capacity).
// Key and Value must be trivially copyable.
template <typename Key, typename Value, typename Hash = U64KeyHash>
class OpenAddressMap {
  static_assert(std::is_trivially_copyable_v<Key>);
  static_assert(std::is_trivially_copyable_v<Value>);

 public:
  OpenAddressMap() = default;

  // Returns the value slot for `key`, inserting `fallback` first if absent.
  Value& find_or_insert(Key key, Value fallback) {
    return *try_insert(key, fallback).first;
  }

  // Inserts `value` for `key` if absent. Returns the key's value slot and
  // whether this call inserted it, in one probe.
  std::pair<Value*, bool> try_insert(Key key, Value value) {
    if (slots_.empty() || (size_ + tombstones_ + 1) * 10 > slots_.size() * 7) {
      rehash();
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash_(key)) & mask;
    std::size_t reuse = kNoSlot;
    while (true) {
      const std::uint8_t st = states_[i];
      if (st == kFull && slots_[i].key == key) return {&slots_[i].value, false};
      if (st == kTomb && reuse == kNoSlot) reuse = i;
      if (st == kEmpty) {
        if (reuse != kNoSlot) {
          i = reuse;
          --tombstones_;
        }
        states_[i] = kFull;
        slots_[i].key = key;
        slots_[i].value = value;
        ++size_;
        return {&slots_[i].value, true};
      }
      i = (i + 1) & mask;
    }
  }

  // Pointer to the value for `key`, or nullptr.
  [[nodiscard]] const Value* find(Key key) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash_(key)) & mask;
    while (true) {
      const std::uint8_t st = states_[i];
      if (st == kFull && slots_[i].key == key) return &slots_[i].value;
      if (st == kEmpty) return nullptr;
      i = (i + 1) & mask;
    }
  }

  [[nodiscard]] Value* find(Key key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  // Removes the entry for `key`; returns true if it existed. The slot
  // becomes a tombstone (probe chains through it stay intact); compaction
  // happens lazily at the next occupancy trigger.
  bool erase(Key key) {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash_(key)) & mask;
    while (true) {
      const std::uint8_t st = states_[i];
      if (st == kFull && slots_[i].key == key) {
        states_[i] = kTomb;
        --size_;
        ++tombstones_;
        return true;
      }
      if (st == kEmpty) return false;
      i = (i + 1) & mask;
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  // Dead slots awaiting compaction (observability for tests).
  [[nodiscard]] std::size_t tombstones() const { return tombstones_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  // Heap footprint of the slot and state arrays.
  [[nodiscard]] std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot) + states_.capacity();
  }

  // Heap footprint of a map after `n` inserts into an empty map with no
  // erase: the capacity the growth rule settles on, times one slot and one
  // state byte.
  [[nodiscard]] static constexpr std::size_t bytes_for(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (n * 10 > cap * 7) cap *= 2;
    return cap * (sizeof(Slot) + 1);
  }

  // Drops every entry; keeps the slot array's capacity.
  void clear() {
    std::fill(states_.begin(), states_.end(), static_cast<std::uint8_t>(0));
    size_ = 0;
    tombstones_ = 0;
  }

  // Drops every entry and frees the slot arrays (see ArenaTable::release).
  void release() {
    slots_ = std::vector<Slot>{};
    states_ = std::vector<std::uint8_t>{};
    size_ = 0;
    tombstones_ = 0;
  }

 private:
  enum : std::uint8_t { kEmpty = 0, kFull = 1, kTomb = 2 };
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    Key key;
    Value value;
  };

  // Rebuilds the table. Doubles capacity only when live entries need the
  // room; a tombstone-dominated table compacts at its current capacity.
  void rehash() {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_states = std::move(states_);
    std::size_t cap = old_slots.empty() ? kMinCapacity : old_slots.size();
    if ((size_ + 1) * 10 > cap * 7) cap *= 2;
    slots_.assign(cap, Slot{Key{}, Value{}});
    states_.assign(cap, kEmpty);
    size_ = 0;
    tombstones_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_states[i] == kFull) {
        find_or_insert(old_slots[i].key, old_slots[i].value);
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> states_;
  std::size_t size_ = 0;        // live entries
  std::size_t tombstones_ = 0;  // erased slots not yet compacted
  Hash hash_;
};

// Unsorted vector map for agent-local transient state (armed elections,
// outstanding own queries): a handful of live entries, point lookups only.
// One vector (24 B empty) replaces an unordered_map (56 B empty plus a heap
// node per entry) — at a hundred thousand agents the empty-container tax is
// what matters. Linear find; erase swap-pops.
template <typename Key, typename Value>
class SmallFlatMap {
 public:
  struct Entry {
    Key key;
    Value value;
  };

  // Returns the value slot for `key`, default-inserting if absent.
  Value& operator[](Key key) {
    for (Entry& e : entries_) {
      if (e.key == key) return e.value;
    }
    entries_.push_back(Entry{key, Value{}});
    return entries_.back().value;
  }

  [[nodiscard]] Value* find(Key key) {
    for (Entry& e : entries_) {
      if (e.key == key) return &e.value;
    }
    return nullptr;
  }
  [[nodiscard]] const Value* find(Key key) const {
    return const_cast<SmallFlatMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(Key key) const { return find(key) != nullptr; }

  bool erase(Key key) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) {
        entries_[i] = std::move(entries_.back());
        entries_.pop_back();
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

// Sorted-vector id set for monotone-growing membership checks (settled
// elections, relayed requests, answered notifications). Binary-search
// contains; ordered insert keeps iteration deterministic by construction.
template <typename Key>
class SortedIdSet {
 public:
  // Inserts `key`; returns true if it was not already present.
  bool insert(Key key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) return false;
    keys_.insert(it, key);
    return true;
  }

  [[nodiscard]] bool contains(Key key) const {
    return std::binary_search(keys_.begin(), keys_.end(), key);
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  void clear() { keys_.clear(); }

 private:
  std::vector<Key> keys_;
};

}  // namespace hlsrg
