// Open-addressing hash map for hot lookup paths (the FreshnessTable key index,
// the geocast flood's seen-node map): linear probing over trivially
// copyable keys and values, one contiguous slot array plus a one-byte state
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

namespace hlsrg {

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

  // Drops every entry and frees the slot arrays (see FreshnessTable::release).
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

}  // namespace hlsrg
