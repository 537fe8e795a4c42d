// Arena-backed table family for million-entity state (ROADMAP item 2).
//
// BumpArena: a chunked bump allocator. Allocations are never freed
// individually; addresses are stable for the arena's lifetime (chunks are
// kept, not reallocated), and reset() recycles every chunk without
// returning memory to the OS. Fixed-width table pages and variable-length
// payload copies both come from here, so a table's whole footprint is a
// handful of large allocations instead of per-entry heap nodes.
//
// ArenaTable<Key, Record>: densely packed fixed-width records stored in
// arena pages, behind a key -> slot index. Insert/find/erase are O(1);
// erase swap-pops the last record into the hole, so the dense array never
// fragments. Dense order (entry_at, unsorted_records) is insertion-and-erase
// order — deterministic for a deterministic operation sequence, but NOT
// sorted; consumers that need a canonical order (digests, wire payloads)
// use snapshot(), which copies and sorts by key. There is no iterator, so
// no loop picks up dense order by accident. Record pointers from find()
// stay valid until the next erase (pages never move; swap-pop moves one
// record).
//
// The key index has two representations, chosen by bytes alone:
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
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/open_address_map.h"

namespace hlsrg {

// Chunked bump allocator. All memory is max_align_t-aligned; chunk size
// doubles up to a cap so small tables stay small and large tables amortize.
// The floor is deliberately tiny: the common ArenaTable is a per-vehicle
// L1 table holding a handful of records, and at 100k vehicles the cost of
// an occupied-but-small table is what dominates bytes-per-vehicle.
class BumpArena {
 public:
  static constexpr std::size_t kMinChunkBytes = 512;
  static constexpr std::size_t kMaxChunkBytes = 1u << 20;

  BumpArena() = default;
  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;
  BumpArena(BumpArena&&) = default;
  BumpArena& operator=(BumpArena&&) = default;

  // Returns `size` bytes aligned to alignof(std::max_align_t). Never fails
  // short of OOM; a request larger than the chunk cap gets its own chunk.
  void* allocate(std::size_t size) {
    constexpr std::size_t align = alignof(std::max_align_t);
    size = (size + align - 1) / align * align;
    if (chunk_ == chunks_.size() || used_ + size > chunks_[chunk_].size()) {
      next_chunk(size);
    }
    void* p = chunks_[chunk_].data() + used_;
    used_ += size;
    allocated_ += size;
    return p;
  }

  // Recycles every chunk: subsequent allocations reuse the memory in chunk
  // order. Previously returned pointers become dangling.
  void reset() {
    chunk_ = 0;
    used_ = 0;
    allocated_ = 0;
  }

  // Returns every chunk to the OS. Unlike reset(), nothing is kept: the
  // next allocation starts over at kMinChunkBytes.
  void release() {
    chunks_ = std::vector<Chunk>{};
    chunk_ = 0;
    used_ = 0;
    allocated_ = 0;
    next_size_ = kMinChunkBytes;
  }

  // Total bytes handed out since the last reset().
  [[nodiscard]] std::size_t allocated() const { return allocated_; }
  // Total bytes held from the OS (survives reset()).
  [[nodiscard]] std::size_t capacity() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size();
    return total;
  }

 private:
  // Raw storage in max_align_t units; the vector's heap buffer never moves
  // once created, so pointers into a chunk are stable.
  struct Chunk {
    std::vector<std::max_align_t> units;
    [[nodiscard]] unsigned char* data() {
      return reinterpret_cast<unsigned char*>(units.data());
    }
    [[nodiscard]] std::size_t size() const {
      return units.size() * sizeof(std::max_align_t);
    }
  };

  void next_chunk(std::size_t need) {
    // Advance to the next recycled chunk that fits (post-reset reuse);
    // otherwise grow a fresh one.
    for (std::size_t i = (used_ == 0) ? chunk_ : chunk_ + 1;
         i < chunks_.size(); ++i) {
      if (chunks_[i].size() >= need) {
        chunk_ = i;
        used_ = 0;
        return;
      }
    }
    std::size_t bytes = std::max(kMinChunkBytes, next_size_);
    while (bytes < need) bytes *= 2;
    next_size_ = std::min(bytes * 2, kMaxChunkBytes);
    Chunk c;
    c.units.resize((bytes + sizeof(std::max_align_t) - 1) /
                   sizeof(std::max_align_t));
    chunks_.push_back(std::move(c));
    chunk_ = chunks_.size() - 1;
    used_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;      // current chunk index
  std::size_t used_ = 0;       // bytes used in the current chunk
  std::size_t allocated_ = 0;  // bytes handed out since reset()
  std::size_t next_size_ = kMinChunkBytes;
};

// Extracts a 64-bit hashable key from TaggedId or integral keys.
template <typename Key>
[[nodiscard]] constexpr std::uint64_t arena_key_u64(Key key) {
  if constexpr (std::is_integral_v<Key>) {
    return static_cast<std::uint64_t>(key);
  } else {
    return static_cast<std::uint64_t>(key.value());
  }
}

// Dense fixed-width record table over arena pages; see file comment.
template <typename Key, typename Record>
class ArenaTable {
  static_assert(std::is_trivially_copyable_v<Record>);
  static_assert(std::is_trivially_destructible_v<Record>);

 public:
  // Pages are allocated whole from the arena, so record addresses are
  // stable across growth. Page sizes ramp geometrically (8, 16, ...,
  // kPageRecords) and then stay constant: a per-vehicle table with three
  // records pays ~0.5 KB instead of a full 256-record page, while a
  // 100k-record RSU table still amortizes to one allocation per 256
  // records. At million-entity scale the small-table floor is the
  // bytes-per-vehicle term that matters.
  static constexpr std::size_t kMinPageRecords = 8;
  static constexpr std::size_t kPageRecords = 256;
  // Pages 0..kRampPages-1 double from kMinPageRecords to kPageRecords and
  // hold kRampEntries records in total; every later page is full-size.
  static constexpr std::size_t kRampPages = 6;
  static constexpr std::size_t kRampEntries =
      kMinPageRecords * ((1u << kRampPages) - 1);
  static_assert(kMinPageRecords << (kRampPages - 1) == kPageRecords);

  struct Entry {
    Key key;
    Record rec;
  };

  ArenaTable() = default;
  ArenaTable(const ArenaTable&) = delete;
  ArenaTable& operator=(const ArenaTable&) = delete;
  ArenaTable(ArenaTable&&) = default;
  ArenaTable& operator=(ArenaTable&&) = default;

  // Inserts or overwrites the record for `key`. Returns true if inserted.
  bool upsert(Key key, const Record& rec) {
    bool inserted = false;
    Record& slot = find_or_insert(key, rec, &inserted);
    if (!inserted) slot = rec;
    return inserted;
  }

  // Returns the record slot for `key`, inserting `fallback` first if absent.
  Record& find_or_insert(Key key, const Record& fallback,
                         bool* inserted = nullptr) {
    const std::uint64_t k = arena_key_u64(key);
    if (!direct_.empty() && !extend_direct(k)) to_hashed();
    std::uint32_t* const slot =
        direct_.empty() ? &index_.find_or_insert(k, kNoSlot)
                        : &direct_[static_cast<std::size_t>(k)];
    if (*slot != kNoSlot) {
      if (inserted != nullptr) *inserted = false;
      return entry_at(*slot).rec;
    }
    *slot = static_cast<std::uint32_t>(size_);
    Entry& e = push_entry();
    e.key = key;
    e.rec = fallback;
    if (inserted != nullptr) *inserted = true;
    if (direct_.empty()) {
      max_key_ = std::max(max_key_, k);
      if (max_key_ < index_.bytes() / sizeof(std::uint32_t)) to_direct();
    }
    return e.rec;
  }

  [[nodiscard]] const Record* find(Key key) const {
    const std::uint32_t* slot = slot_of(arena_key_u64(key));
    if (slot == nullptr) return nullptr;
    return &entry_at(*slot).rec;
  }

  [[nodiscard]] Record* find(Key key) {
    return const_cast<Record*>(std::as_const(*this).find(key));
  }

  // Removes the entry for `key`; returns true if it existed. The last
  // record swap-pops into the hole, so one unrelated record moves.
  bool erase(Key key) {
    const std::uint64_t k = arena_key_u64(key);
    std::uint32_t* slot = slot_of(k);
    if (slot == nullptr) return false;
    const std::uint32_t hole = *slot;
    if (direct_.empty()) {
      index_.erase(k);
    } else {
      *slot = kNoSlot;
    }
    const std::size_t last = size_ - 1;
    if (hole != last) {
      Entry& moved = entry_at(last);
      entry_at(hole) = moved;
      *slot_of(arena_key_u64(moved.key)) = hole;
    }
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Drops every entry. Pages and index capacity are kept for reuse, and so
  // is the index representation.
  void clear() {
    index_.clear();
    std::fill(direct_.begin(), direct_.end(), kNoSlot);
    max_key_ = 0;
    size_ = 0;
  }

  // Drops every entry AND returns all memory to the OS. For tables whose
  // owner's duty has ended (an ex-center vehicle, a demoted RSU role):
  // at scale most agents are ex-holders, so keeping peak capacity "for
  // reuse" — what clear() does — is a per-agent memory leak in all but
  // name.
  void release() {
    index_.release();
    direct_ = std::vector<std::uint32_t>{};
    max_key_ = 0;
    arena_.release();
    pages_ = std::vector<Entry*>{};
    size_ = 0;
    capacity_ = 0;
  }

  // Dense entry access, [0, size()); insertion-and-erase order.
  [[nodiscard]] const Entry& entry_at(std::size_t i) const {
    const auto [page, offset] = locate(i);
    return pages_[page][offset];
  }
  [[nodiscard]] Entry& entry_at(std::size_t i) {
    const auto [page, offset] = locate(i);
    return pages_[page][offset];
  }

  // Canonical (key-sorted) copy of all records, for digests and wire
  // payloads whose byte layout must not depend on table history.
  [[nodiscard]] std::vector<Record> snapshot() const {
    std::vector<std::size_t> order(size_);
    for (std::size_t i = 0; i < size_; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      return entry_at(a).key < entry_at(b).key;
    });
    std::vector<Record> out;
    out.reserve(size_);
    for (std::size_t i : order) out.push_back(entry_at(i).rec);
    return out;
  }

  // Records copied in dense (unsorted) order — the cheap bulk view for
  // handoff payloads where the receiver re-keys anyway.
  [[nodiscard]] std::vector<Record> unsorted_records() const {
    std::vector<Record> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back(entry_at(i).rec);
    return out;
  }

  // Heap footprint: arena pages plus the key index.
  [[nodiscard]] std::size_t bytes() const {
    return arena_.capacity() + index_.bytes() +
           direct_.capacity() * sizeof(std::uint32_t) +
           pages_.capacity() * sizeof(Entry*);
  }

  // True while the key index is the direct slot array (tests).
  [[nodiscard]] bool direct_indexed() const { return !direct_.empty(); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // Records in page `j` under the geometric ramp.
  static constexpr std::size_t page_records(std::size_t j) {
    return j < kRampPages ? kMinPageRecords << j : kPageRecords;
  }

  // Maps dense index -> (page, offset). Ramp pages start at
  // kMinPageRecords * (2^j - 1), so the page is one bit_width away; past
  // the ramp it is a shift and mask (kPageRecords is a power of two).
  static std::pair<std::size_t, std::size_t> locate(std::size_t i) {
    if (i < kRampEntries) {
      const std::size_t j =
          static_cast<std::size_t>(
              std::bit_width((i + kMinPageRecords) / kMinPageRecords)) -
          1;
      return {j, i + kMinPageRecords - (kMinPageRecords << j)};
    }
    return {kRampPages + (i - kRampEntries) / kPageRecords,
            (i - kRampEntries) % kPageRecords};
  }

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
        OpenAddressMap<std::uint64_t, std::uint32_t>::bytes_for(size_ + 1) /
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
    for (std::size_t i = 0; i < size_; ++i) {
      direct_[static_cast<std::size_t>(arena_key_u64(entry_at(i).key))] =
          static_cast<std::uint32_t>(i);
    }
    index_.release();
  }

  // Rebuilds the index as a hash map over the current entries.
  void to_hashed() {
    direct_ = std::vector<std::uint32_t>{};
    max_key_ = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      const std::uint64_t k = arena_key_u64(entry_at(i).key);
      index_.find_or_insert(k, static_cast<std::uint32_t>(i));
      max_key_ = std::max(max_key_, k);
    }
  }

  Entry& push_entry() {
    if (size_ == capacity_) {
      const std::size_t records = page_records(pages_.size());
      void* raw = arena_.allocate(sizeof(Entry) * records);
      pages_.push_back(static_cast<Entry*>(raw));
      capacity_ += records;
    }
    // Placement-new starts the entry's lifetime in the arena page; entries
    // are trivially destructible, so reuse after clear()/erase is free.
    const auto [page, offset] = locate(size_);
    Entry* e = ::new (static_cast<void*>(pages_[page] + offset)) Entry{};
    ++size_;
    return *e;
  }

  // Hashed key index; empty (released) while direct_ is in use.
  OpenAddressMap<std::uint64_t, std::uint32_t> index_;
  // Direct key index: direct_[key] = dense slot or kNoSlot. Non-empty iff
  // the table is direct-indexed.
  std::vector<std::uint32_t> direct_;
  // Largest key inserted into the hashed index since the last clear() or
  // release().
  std::uint64_t max_key_ = 0;
  BumpArena arena_;
  std::vector<Entry*> pages_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  // total records the allocated pages can hold
};

}  // namespace hlsrg
