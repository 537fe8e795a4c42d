// Tests for the million-entity memory layer (DESIGN.md §15): the freshness
// table's dense record vector and key index fuzzed against std::map, its
// footprint bound, the open-addressing map's tombstone compaction fuzzed
// against std::unordered_map, the lower-bound purge against a full-scan
// eviction model, the freshness table over a NodeId key, and the per-query
// state with its bound on a hotspot-shaped world.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/location_table.h"
#include "core/query_state.h"
#include "core/vehicle_agent.h"
#include "harness/world.h"
#include "rlsmp/rlsmp_agent.h"
#include "util/freshness_table.h"
#include "util/open_address_map.h"

namespace hlsrg {
namespace {

// SplitMix64: a self-contained deterministic stream for fuzz sequences, so
// these tests never touch the simulator's seeded RNG discipline.
struct Mix64 {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

// --- Dense record vector and key index --------------------------------------
//
// These cases first tested the arena-backed table that FreshnessTable used
// to sit on; they keep their names, now over FreshnessTable itself. Probe
// carries its key, and Upsert stamps every call with a newer time, so a
// record() of a held key always overwrites.

struct Probe {
  VehicleId vehicle;
  SimTime time;
  std::uint64_t value = 0;
};
using ProbeTable = FreshnessTable<Probe>;

VehicleId probe_key(std::uint64_t key) {
  return VehicleId{static_cast<std::uint32_t>(key)};
}

struct Upsert {
  std::int64_t clock = 0;
  // Returns true if the call inserted.
  bool operator()(ProbeTable& table, std::uint64_t key, std::uint64_t value) {
    const std::size_t before = table.size();
    table.record({probe_key(key), SimTime::from_us(++clock), value});
    return table.size() > before;
  }
};

// Returns true if `key` was held.
bool erase_key(ProbeTable& table, std::uint64_t key) {
  const std::size_t before = table.size();
  table.erase(probe_key(key));
  return table.size() < before;
}

TEST(ArenaTableTest, FuzzMatchesStdMap) {
  ProbeTable table;
  Upsert upsert;
  std::map<std::uint64_t, std::uint64_t> model;
  Mix64 rng{1234};
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key = r % 512;  // small key space forces collisions
    const std::uint64_t op = (r >> 32) % 10;
    if (op < 6) {
      const std::uint64_t value = rng.next();
      const bool inserted = upsert(table, key, value);
      EXPECT_EQ(inserted, model.find(key) == model.end());
      model[key] = value;
    } else if (op < 9) {
      EXPECT_EQ(erase_key(table, key), model.erase(key) == 1);
    } else {
      const Probe* rec = table.find(probe_key(key));
      const auto it = model.find(key);
      ASSERT_EQ(rec != nullptr, it != model.end());
      if (rec != nullptr) {
        EXPECT_EQ(rec->value, it->second);
      }
    }
    ASSERT_EQ(table.size(), model.size());
  }
  // snapshot() is key-sorted, so it must mirror the model's iteration.
  const std::vector<Probe> snap = table.snapshot();
  ASSERT_EQ(snap.size(), model.size());
  std::size_t i = 0;
  for (const auto& [key, value] : model) {
    EXPECT_EQ(snap[i].vehicle.value(), key);
    EXPECT_EQ(snap[i++].value, value);
  }
}

TEST(ArenaTableTest, ReleaseReturnsAllMemoryAndTheTableStaysUsable) {
  ProbeTable table;
  Upsert upsert;
  for (std::uint64_t k = 0; k < 1000; ++k) upsert(table, k, k);
  EXPECT_GT(table.bytes(), 0u);
  table.release();
  EXPECT_TRUE(table.empty());
  // Unlike clear(), release() returns the records and the index.
  EXPECT_EQ(table.bytes(), 0u);
  upsert(table, 42, 7);
  EXPECT_EQ(table.find(probe_key(42))->value, 7u);
  // A released-then-small table pays for one record, not its old
  // 1000-record peak.
  EXPECT_LT(table.bytes(), 2048u);
}

TEST(ArenaTableTest, UnsortedRecordsIsAPermutationOfSnapshot) {
  ProbeTable table;
  Upsert upsert;
  Mix64 rng{5};
  for (int i = 0; i < 700; ++i) upsert(table, rng.next() % 900, rng.next());
  for (int i = 0; i < 300; ++i) erase_key(table, rng.next() % 900);
  std::vector<std::uint64_t> dense;
  std::vector<std::uint64_t> sorted;
  for (const Probe& p : table.unsorted_records()) dense.push_back(p.value);
  for (const Probe& p : table.snapshot()) sorted.push_back(p.value);
  ASSERT_EQ(dense.size(), table.size());
  std::sort(dense.begin(), dense.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(dense, sorted);
}

// Reference model of the table: values by key plus the dense order
// (append on insert, swap-pop on erase).
struct DenseModel {
  std::map<std::uint64_t, std::uint64_t> values;
  std::vector<std::uint64_t> order;

  bool upsert(std::uint64_t key, std::uint64_t value) {
    const bool inserted = values.find(key) == values.end();
    if (inserted) order.push_back(key);
    values[key] = value;
    return inserted;
  }
  bool erase(std::uint64_t key) {
    if (values.erase(key) == 0) return false;
    const auto it = std::find(order.begin(), order.end(), key);
    *it = order.back();
    order.pop_back();
    return true;
  }
  void clear() {
    values.clear();
    order.clear();
  }
};

void expect_matches(const ProbeTable& table, const DenseModel& model) {
  ASSERT_EQ(table.size(), model.order.size());
  const std::vector<Probe> dense = table.unsorted_records();
  for (std::size_t i = 0; i < model.order.size(); ++i) {
    const Probe& e = dense[i];
    ASSERT_EQ(e.vehicle.value(), model.order[i]) << "dense slot " << i;
    ASSERT_EQ(e.value, model.values.at(model.order[i]));
    const Probe* found = table.find(e.vehicle);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(found->value, e.value);
  }
  std::vector<std::uint64_t> want;
  std::vector<std::uint64_t> got;
  for (const auto& [key, value] : model.values) want.push_back(value);
  for (const Probe& p : table.snapshot()) got.push_back(p.value);
  ASSERT_EQ(got, want);
}

TEST(ArenaTableTest, IndexSwitchFuzzMatchesDenseModel) {
  // Upsert / erase / clear / release against the model while the key range
  // changes every epoch, so tables cross the hashed -> direct switch and
  // back (a key far past the direct span, or release()).
  ProbeTable table;
  Upsert upsert;
  DenseModel model;
  Mix64 rng{2024};
  constexpr std::uint64_t kRanges[] = {60, 700, 3000, 20000};
  std::uint64_t range = kRanges[0];
  int direct_seen = 0, hashed_after_direct = 0, huge_inserts = 0;
  bool was_direct = false;
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t r = rng.next();
    const std::uint64_t op = (r >> 40) % 1000;
    const std::uint64_t key = r % range;
    if (op < 560) {
      const std::uint64_t value = rng.next();
      ASSERT_EQ(upsert(table, key, value), model.upsert(key, value));
    } else if (op < 820) {
      ASSERT_EQ(erase_key(table, key), model.erase(key));
    } else if (op < 990) {
      const Probe* rec = table.find(probe_key(key));
      const auto it = model.values.find(key);
      ASSERT_EQ(rec != nullptr, it != model.values.end());
      if (rec != nullptr) {
        ASSERT_EQ(rec->value, it->second);
      }
    } else if (op < 993) {
      // A key far beyond any span: must not size a slot array to it.
      const std::uint64_t huge = (std::uint64_t{1} << 30) + (r % 7);
      ASSERT_EQ(upsert(table, huge, r), model.upsert(huge, r));
      ++huge_inserts;
      ASSERT_LT(table.bytes(), std::size_t{1} << 24);
    } else {
      const bool keep_representation = table.direct_indexed();
      if (op < 997) {
        table.clear();
        EXPECT_EQ(table.direct_indexed(), keep_representation);
      } else {
        table.release();
        EXPECT_FALSE(table.direct_indexed());
        EXPECT_EQ(table.bytes(), 0u);
      }
      model.clear();
      range = kRanges[(r >> 20) % 4];
    }
    ASSERT_EQ(table.size(), model.order.size());
    if (table.direct_indexed()) ++direct_seen;
    if (was_direct && !table.direct_indexed()) ++hashed_after_direct;
    was_direct = table.direct_indexed();
    if (step % 97 == 0) expect_matches(table, model);
  }
  expect_matches(table, model);
  EXPECT_GT(direct_seen, 1000);
  EXPECT_GT(hashed_after_direct, 5);
  EXPECT_GT(huge_inserts, 50);
}

TEST(ArenaTableTest, DirectIndexFollowsTheByteRule) {
  using Index = OpenAddressMap<std::uint64_t, std::uint32_t>;
  // Dense keys from 1000 up: the table starts hashed (a 16-slot index
  // cannot pay for 1001 slots) and switches on the insert at which
  // 4 B x (max key + 1) first fits in the hash index's bytes; an
  // insert-only index holds exactly bytes_for(size).
  ProbeTable dense;
  Upsert upsert;
  bool was_direct = false;
  for (std::uint64_t k = 1000; k < 3000; ++k) {
    upsert(dense, k, k);
    const bool rule = 4 * (k + 1) <= Index::bytes_for(k - 999);
    ASSERT_EQ(dense.direct_indexed(), was_direct || rule) << k;
    was_direct = dense.direct_indexed();
  }
  EXPECT_TRUE(dense.direct_indexed());
  // Sparse keys (one in a thousand) never pay for a slot array.
  ProbeTable sparse;
  for (std::uint64_t k = 0; k < 2000; ++k) upsert(sparse, k * 1000, k);
  EXPECT_FALSE(sparse.direct_indexed());
  // Same record count, so the footprints differ by the index alone: the
  // slot array spans at most twice the 3000 key values.
  EXPECT_LE(dense.bytes() + Index::bytes_for(2000),
            sparse.bytes() + 2 * sizeof(std::uint32_t) * 3000);
  // A key just past the span grows the array in place.
  upsert(dense, 3100, 1);
  EXPECT_TRUE(dense.direct_indexed());
  EXPECT_EQ(dense.find(probe_key(3100))->value, 1u);
  // clear() keeps the representation; release() returns to hashing.
  dense.clear();
  EXPECT_TRUE(dense.direct_indexed());
  EXPECT_EQ(dense.find(probe_key(7)), nullptr);
  upsert(dense, 7, 70);
  EXPECT_EQ(dense.find(probe_key(7))->value, 70u);
  dense.release();
  EXPECT_FALSE(dense.direct_indexed());
  EXPECT_EQ(dense.find(probe_key(7)), nullptr);
}

TEST(FreshnessTableTest, RecordAcceptsARecordOfItsOwn) {
  // record() and merge() are handed records that live in the table's own
  // vector, at full capacity, so the next insert would reallocate.
  ProbeTable table;
  Upsert upsert;
  for (std::uint64_t k = 0; k < 8; ++k) upsert(table, k, k * 10);
  table.record(*table.find(probe_key(3)));
  table.merge(table.unsorted_records());
  ASSERT_EQ(table.size(), 8u);
  EXPECT_EQ(table.find(probe_key(3))->value, 30u);
  upsert(table, 8, 80);
  EXPECT_EQ(table.find(probe_key(8))->value, 80u);
  EXPECT_EQ(table.find(probe_key(7))->value, 70u);
}

TEST(FreshnessTableTest, FootprintStaysNearTheRecords) {
  // Bound per table of n location records: the record vector at below
  // twice n (any growth factor up to 2) and the hash index of n keys (a
  // direct index is only chosen when it costs no more). 3 records is a
  // per-vehicle L1 table, 150 an L2 table, 8,000 a near-fleet L3 table.
  using Index = OpenAddressMap<std::uint64_t, std::uint32_t>;
  for (const std::size_t n : {std::size_t{3}, std::size_t{150},
                              std::size_t{8000}}) {
    L1Table table;
    for (std::size_t i = 0; i < n; ++i) {
      L1Record rec;
      rec.vehicle = VehicleId{i * 8000 / n};  // spread over an 8,000 fleet
      rec.time = SimTime::from_sec(1.0);
      table.record(rec);
    }
    ASSERT_EQ(table.size(), n);
    const std::size_t bound = n * 2 * sizeof(L1Record) + Index::bytes_for(n);
    EXPECT_LE(table.bytes(), bound) << n << " records";
  }
}

// --- OpenAddressMap --------------------------------------------------------

TEST(OpenAddressMapTest, EraseChurnFuzzMatchesUnorderedMap) {
  OpenAddressMap<std::uint64_t, std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> model;
  Mix64 rng{99};
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key = r % 300;
    switch ((r >> 40) % 3) {
      case 0: {
        const auto value = static_cast<std::uint32_t>(step);
        // find_or_insert keeps an existing value, like emplace.
        map.find_or_insert(key, value);
        model.emplace(key, value);
        break;
      }
      case 1:
        EXPECT_EQ(map.erase(key), model.erase(key) == 1);
        break;
      default: {
        const std::uint32_t* found = map.find(key);
        const auto it = model.find(key);
        ASSERT_EQ(found != nullptr, it != model.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), model.size());
  }
}

TEST(OpenAddressMapTest, TombstoneChurnCompactsInsteadOfGrowing) {
  OpenAddressMap<std::uint64_t, std::uint32_t> map;
  for (std::uint64_t k = 0; k < 64; ++k) map.find_or_insert(k, 0);
  // Steady-state population under heavy insert+erase churn with
  // never-repeating keys: every erase leaves a tombstone on a fresh slot.
  std::size_t warm_capacity = 0;
  for (std::uint64_t round = 0; round < 10000; ++round) {
    map.find_or_insert(1000 + round, 1);
    EXPECT_TRUE(map.erase(1000 + round));
    if (round == 100) warm_capacity = map.capacity();
  }
  EXPECT_EQ(map.size(), 64u);
  // The occupancy trigger must compact tombstones in place, not double the
  // table forever (the pre-PR-10 map leaked dead slots into the load).
  EXPECT_LE(map.capacity(), warm_capacity);
  // And the live entries all survived the compactions.
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_NE(map.find(k), nullptr);
}

TEST(OpenAddressMapTest, ExtremeKeysAreOrdinary) {
  // No reserved sentinel key: 0 and ~0 behave like any other bit pattern
  // (slot liveness lives in the state array, not in the key).
  OpenAddressMap<std::uint64_t, std::uint32_t> map;
  map.find_or_insert(0, 1);
  map.find_or_insert(~std::uint64_t{0}, 2);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(0), nullptr);
  EXPECT_EQ(*map.find(0), 1u);
  ASSERT_NE(map.find(~std::uint64_t{0}), nullptr);
  EXPECT_EQ(*map.find(~std::uint64_t{0}), 2u);
  EXPECT_TRUE(map.erase(0));
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_NE(map.find(~std::uint64_t{0}), nullptr);
}

TEST(OpenAddressMapTest, TryInsertReportsWhetherItInserted) {
  OpenAddressMap<std::uint64_t, double> map;
  const auto [first, inserted] = map.try_insert(7, 2.5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*first, 2.5);
  // A second insert keeps the stored value and hands back its slot.
  const auto [again, reinserted] = map.try_insert(7, 9.0);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again, map.find(7));
  EXPECT_EQ(*again, 2.5);
  // An erased key inserts afresh (into its tombstone).
  EXPECT_TRUE(map.erase(7));
  EXPECT_TRUE(map.try_insert(7, 9.0).second);
  EXPECT_EQ(*map.find(7), 9.0);
  EXPECT_EQ(map.size(), 1u);
}

// --- LocationTable purge = lower-bound skip + full sweep -------------------

TEST(LocationTableTest, PurgeMatchesFullScanEviction) {
  // purge() skips while its lower bound on record times says nothing can
  // expire; the model below scans every record on every purge. They must
  // evict the same records (time + expiry < now) under overwrites, erases,
  // a different expiry per purge, clear()/release() followed by a refill
  // older than the old bound, and merges that backfill records older than
  // the current bound.
  L1Table table;
  std::map<VehicleId, L1Record> model;
  Mix64 rng{21};
  SimTime now = SimTime::from_sec(0.0);
  const auto model_record = [&](const L1Record& rec) {
    const auto it = model.find(rec.vehicle);
    if (it == model.end() || it->second.time < rec.time) {
      model[rec.vehicle] = rec;
    }
  };
  const auto record = [&](const L1Record& rec) {
    table.record(rec);
    model_record(rec);
  };
  // A record for a random key, timestamped up to `behind_ms` before now.
  const auto make = [&](int round, int i, std::uint64_t behind_ms) {
    L1Record rec;
    rec.vehicle = VehicleId{static_cast<std::uint32_t>(rng.next() % 400)};
    rec.time =
        now - SimTime::from_ms(static_cast<double>(rng.next() % behind_ms));
    rec.pos = Vec2{static_cast<double>(round), static_cast<double>(i)};
    return rec;
  };
  for (int round = 0; round < 200; ++round) {
    now = now + SimTime::from_sec(10.0);
    if (round % 40 == 39) {
      // Reset, then refill with records older than any held before: they
      // must expire on time, whatever bound the reset left behind.
      if (round % 80 == 39) {
        table.clear();
      } else {
        table.release();
      }
      model.clear();
      for (int i = 0; i < 100; ++i) {
        L1Record rec = make(round, i, 100000);
        rec.time = rec.time - SimTime::from_sec(200.0);
        record(rec);
      }
    }
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t op = rng.next() % 10;
      if (op == 0) {
        const VehicleId k{static_cast<std::uint32_t>(rng.next() % 400)};
        table.erase(k);
        model.erase(k);
      } else if (op == 1) {
        // A hand-off payload: records far older than the table's newest,
        // many older than its bound, some already expired.
        std::vector<L1Record> payload;
        for (int j = 0; j < 8; ++j) {
          L1Record rec = make(round, i, 150000);
          rec.time = rec.time - SimTime::from_sec(100.0);
          payload.push_back(rec);
        }
        table.merge(payload);
        for (const L1Record& rec : payload) model_record(rec);
      } else {
        // Timestamps jitter up to 200 s behind `now`: some records arrive
        // already expired, some lose the newest-wins race.
        record(make(round, i, 200000));
      }
    }
    // A different horizon per purge: the bound is on record times, so it
    // must not assume one fixed expiry.
    const SimTime expiry =
        SimTime::from_sec(30.0 + static_cast<double>(rng.next() % 270));
    std::size_t evicted = 0;
    for (auto it = model.begin(); it != model.end();) {
      if (it->second.time < now - expiry) {
        it = model.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
    ASSERT_EQ(table.purge(now, expiry), evicted) << "round " << round;
    ASSERT_EQ(table.size(), model.size()) << "round " << round;
    for (const auto& [vehicle, rec] : model) {
      const L1Record* got = table.find(vehicle);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->time.us(), rec.time.us());
      EXPECT_EQ(got->pos.x, rec.pos.x);
      EXPECT_EQ(got->pos.y, rec.pos.y);
    }
  }
}

// --- FreshnessTable over a NodeId key ---------------------------------------

struct HeardFrom {
  NodeId id;
  int hello = 0;
  SimTime time;
};
using HelloTable = FreshnessTable<HeardFrom, &HeardFrom::id>;

TEST(FreshnessTableTest, RecordKeepsTheNewestPerKey) {
  HelloTable t;
  t.record({NodeId{std::uint32_t{3}}, 1, SimTime::from_sec(2.0)});
  t.record({NodeId{std::uint32_t{1}}, 2, SimTime::from_sec(1.0)});
  t.record({NodeId{std::uint32_t{3}}, 3, SimTime::from_sec(1.0)});  // older
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(NodeId{std::uint32_t{3}})->hello, 1);
  t.record({NodeId{std::uint32_t{3}}, 4, SimTime::from_sec(3.0)});  // newer
  EXPECT_EQ(t.find(NodeId{std::uint32_t{3}})->hello, 4);
}

// The insert/find/erase cases of the sorted-vector FlatTable that this
// table replaced keep their names, now over FreshnessTable.
TEST(FlatTableTest, UpsertInsertsAndOverwrites) {
  HelloTable t;
  t.record({NodeId{std::uint32_t{3}}, 30, SimTime::from_sec(1.0)});
  t.record({NodeId{std::uint32_t{1}}, 10, SimTime::from_sec(1.0)});
  t.record({NodeId{std::uint32_t{3}}, 33, SimTime::from_sec(2.0)});
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(NodeId{std::uint32_t{3}}), nullptr);
  EXPECT_EQ(t.find(NodeId{std::uint32_t{3}})->hello, 33);
}

TEST(FlatTableTest, FindMissingReturnsNull) {
  HelloTable t;
  t.record({NodeId{std::uint32_t{1}}, 1, SimTime::from_sec(1.0)});
  EXPECT_EQ(t.find(NodeId{std::uint32_t{2}}), nullptr);
}

TEST(FlatTableTest, EraseRemovesOnlyTarget) {
  HelloTable t;
  t.record({NodeId{std::uint32_t{1}}, 1, SimTime::from_sec(1.0)});
  t.record({NodeId{std::uint32_t{2}}, 2, SimTime::from_sec(1.0)});
  t.erase(NodeId{std::uint32_t{1}});
  EXPECT_EQ(t.find(NodeId{std::uint32_t{1}}), nullptr);
  t.erase(NodeId{std::uint32_t{1}});  // erasing a missing key is a no-op
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NE(t.find(NodeId{std::uint32_t{2}}), nullptr);
}

TEST(FreshnessTableTest, SnapshotIsKeySorted) {
  HelloTable t;
  for (std::uint32_t v : {9u, 3u, 7u, 1u, 5u}) {
    t.record({NodeId{v}, static_cast<int>(v), SimTime::from_sec(1.0)});
  }
  t.erase(NodeId{std::uint32_t{3}});
  std::vector<std::uint32_t> keys;
  for (const HeardFrom& h : t.snapshot()) keys.push_back(h.id.value());
  EXPECT_EQ(keys, (std::vector<std::uint32_t>{1, 5, 7, 9}));
}

TEST(FreshnessTableTest, PurgeEvictsExactlyTheStaleRecords) {
  HelloTable t;
  for (std::uint32_t v = 0; v < 10; ++v) {
    t.record({NodeId{v}, 0, SimTime::from_sec(v % 2 == 0 ? 1.0 : 5.0)});
  }
  // time + expiry < now: 1 + 3 < 5 evicts, 5 + 3 < 5 does not.
  EXPECT_EQ(t.purge(SimTime::from_sec(5.0), SimTime::from_sec(3.0)), 5u);
  ASSERT_EQ(t.size(), 5u);
  for (const HeardFrom& h : t.snapshot()) EXPECT_EQ(h.id.value() % 2, 1u);
  // The boundary itself stays: 5 + 3 < 8 is false.
  EXPECT_EQ(t.purge(SimTime::from_sec(8.0), SimTime::from_sec(3.0)), 0u);
  EXPECT_EQ(t.purge(SimTime::from_sec(8.0) + SimTime::from_us(1),
                    SimTime::from_sec(3.0)),
            5u);
  EXPECT_TRUE(t.empty());
}

// --- QueryState ----------------------------------------------------------------

using Mark = QueryState::Mark;

TEST(QueryStateTest, MarkIsNewExactlyOnce) {
  QueryState qs;
  EXPECT_TRUE(qs.mark(Mark::kRelayed, 10, 0));
  EXPECT_TRUE(qs.mark(Mark::kRelayed, 5, 0));
  EXPECT_FALSE(qs.mark(Mark::kRelayed, 10, 0));
  EXPECT_TRUE(qs.marked(Mark::kRelayed, 5, 0));
  EXPECT_FALSE(qs.marked(Mark::kRelayed, 11, 0));
  EXPECT_EQ(qs.marks(), 2u);
  // Still set one epoch later, and still not new.
  EXPECT_FALSE(qs.mark(Mark::kRelayed, 10, 1));
  EXPECT_TRUE(qs.marked(Mark::kRelayed, 5, 1));
}

TEST(QueryStateTest, KindsSharingAKeyDoNotCollide) {
  QueryState qs;
  // A dedup key uses bits 0-39; the kind sits in the high byte.
  const std::uint64_t key = (std::uint64_t{0xffffffff} << 8) | 0xff;
  EXPECT_TRUE(qs.mark(Mark::kSettled, key, 0));
  for (Mark kind : {Mark::kRelayed, Mark::kAnswered, Mark::kNotifyForwarded,
                    Mark::kBatchRelayed}) {
    EXPECT_FALSE(qs.marked(kind, key, 0));
    EXPECT_TRUE(qs.mark(kind, key, 0));
  }
  EXPECT_EQ(qs.marks(), 5u);
  EXPECT_TRUE(qs.marked(Mark::kSettled, key, 0));
}

TEST(QueryStateTest, MarkSurvivesTheHorizonAndIsGoneAfterTwo) {
  const SimTime h = SimTime::from_sec(20.0);
  for (const SimTime t : {SimTime::from_sec(0.0), SimTime::from_sec(19.9),
                          SimTime::from_sec(33.0)}) {
    QueryState qs;
    ASSERT_TRUE(qs.mark(Mark::kAnswered, 7, QueryState::epoch(t, h)));
    EXPECT_TRUE(qs.marked(Mark::kAnswered, 7, QueryState::epoch(t + h, h)))
        << t.sec();
    EXPECT_FALSE(
        qs.marked(Mark::kAnswered, 7, QueryState::epoch(t + h + h, h)))
        << t.sec();
    EXPECT_EQ(qs.marks(), 0u);
  }
}

TEST(QueryStateTest, ElectionArmCancelAndErase) {
  EventQueue queue;
  int won = 0;
  QueryState qs;
  EXPECT_TRUE(qs.election_open(42, 0));
  qs.arm_election(42, queue.schedule_at(SimTime::from_ms(1.0), [&] { ++won; }));
  qs.arm_election(43, queue.schedule_at(SimTime::from_ms(2.0), [&] { ++won; }));
  EXPECT_FALSE(qs.election_open(42, 0));
  EXPECT_EQ(qs.retry_attempt(42), 0);  // timer kinds do not collide
  // A peer's claim settles 42 and hands back its timer to cancel.
  const std::optional<EventHandle> timer = qs.settle_election(42, 0);
  ASSERT_TRUE(timer.has_value());
  EXPECT_TRUE(queue.cancel(*timer));
  EXPECT_FALSE(qs.election_open(42, 0));
  EXPECT_FALSE(qs.settle_election(42, 0).has_value());
  // Winning 43: its timer fired; settling erases the entry.
  queue.run_until(SimTime::from_ms(5.0));
  EXPECT_EQ(won, 1);
  EXPECT_TRUE(qs.settle_election(43, 0).has_value());
  EXPECT_FALSE(qs.election_open(43, 0));
  // A settled election reopens once its mark has expired.
  EXPECT_TRUE(qs.election_open(43, 2));
}

TEST(QueryStateTest, PendingFindAndErase) {
  EventQueue queue;
  QueryState qs;
  qs.arm_retry(7, queue.schedule_at(SimTime::from_sec(5.0), [] {}));
  EXPECT_EQ(qs.retry_attempt(7), 1);
  // The next attempt replaces the entry in place.
  qs.arm_retry(7, queue.schedule_at(SimTime::from_sec(10.0), [] {}), 2);
  EXPECT_EQ(qs.retry_attempt(7), 2);
  EXPECT_EQ(qs.retry_attempt(8), 0);
  EXPECT_TRUE(qs.election_open(7, 0));
  EXPECT_TRUE(qs.disarm_retry(7).has_value());
  EXPECT_EQ(qs.retry_attempt(7), 0);
  EXPECT_FALSE(qs.disarm_retry(7).has_value());
}

// --- back-off election ---------------------------------------------------------

TEST(ElectionBackoffTest, HolderWindowPrecedesNonHolderWindow) {
  const SimTime slot = SimTime::from_ms(0.2);
  Rng rng(1234);
  Rng twin(1234);
  SimTime latest_holder;
  SimTime earliest_other = SimTime::max();
  for (int i = 0; i < 2000; ++i) {
    const bool holder = i % 3 != 0;
    const SimTime d = election_backoff(rng, holder);
    // One draw per call, exactly as uniform_int over the window would make.
    const std::int64_t slots =
        holder ? twin.uniform_int(0, 15) : twin.uniform_int(17, 31);
    ASSERT_EQ(d, SimTime::from_us(slot.us() * slots));
    if (holder) {
      EXPECT_GE(d, SimTime{});
      EXPECT_LE(d, SimTime::from_us(15 * slot.us()));
      latest_holder = std::max(latest_holder, d);
    } else {
      EXPECT_GE(d, SimTime::from_us(17 * slot.us()));
      EXPECT_LE(d, SimTime::from_us(31 * slot.us()));
      earliest_other = std::min(earliest_other, d);
    }
  }
  // A holder always fires before any non-holder.
  EXPECT_LT(latest_holder, earliest_other);
  EXPECT_EQ(rng.next(), twin.next());
}

// --- bytes() accounting ----------------------------------------------------

TEST(MemoryAccountingTest, TableBytesGrowWithPopulation) {
  L1Table table;
  const std::size_t empty_bytes = table.bytes();
  for (std::uint32_t i = 0; i < 5000; ++i) {
    L1Record rec;
    rec.vehicle = VehicleId{i};
    rec.time = SimTime::from_sec(1.0);
    table.record(rec);
  }
  EXPECT_GT(table.bytes(), empty_bytes);
  // 5000 records must account for at least their payload bytes.
  EXPECT_GE(table.bytes(), 5000 * sizeof(L1Record));

  RlsmpTable cells;
  EXPECT_EQ(cells.bytes(), 0u);
  CellRecord cell_rec;
  cell_rec.vehicle = VehicleId{std::uint32_t{1}};
  cells.record(cell_rec);
  EXPECT_GT(cells.bytes(), 0u);
}

// --- Per-query marks stay bounded in a long run ----------------------------

// Peak of the fleet's held per-query marks over the marks it set in the
// last 2H (H the mark horizon), sampled once per simulated second from 2H
// into the query window to its end, in a hotspot-service-shaped world (4 km,
// service tier on, 35 q/s open loop onto 5 hot vehicles) whose query window
// is `window`. A mark set more than 2H ago is dead, so a fleet that drops
// its dead marks holds fewer than it set in the last 2H, whatever the
// window; marks kept past 2H make the ratio grow with the window. Dividing
// by marks set keeps the world's load (how many center vehicles each
// request meets) out of the figure.
double peak_marks_per_recent_mark(SimTime window) {
  ScenarioConfig cfg = paper_scenario(1500, 7);
  cfg.map.size_m = 4000.0;
  cfg.source_fraction = 0.0;
  cfg.hotspot_targets = 5;
  cfg.query_window = window;
  cfg.grace = SimTime::from_sec(20.0);
  cfg.service = ServiceTierConfig::full_tier(
      256, SimTime::from_ms(40.0), 8, SimTime::from_sec(15.0));
  cfg.service.cache_capacity = 512;
  cfg.service.open_loop_rate_per_sec = 35.0;
  cfg.service.rsu_lookup_time = SimTime::from_ms(40.0);
  World world(cfg, Protocol::kHlsrg);
  const auto& svc = static_cast<const HlsrgService&>(world.service());
  const std::size_t n = world.mobility().vehicle_count();
  const SimTime two_h = svc.mark_horizon() + svc.mark_horizon();
  EXPECT_GT(two_h, SimTime{});
  // Samples are 1 s apart: `lookback` samples cover at least 2H.
  const auto lookback = static_cast<std::size_t>(
      (two_h.us() + SimTime::from_sec(1.0).us() - 1) /
      SimTime::from_sec(1.0).us());
  const SimTime from = cfg.warmup + two_h;
  const SimTime to = cfg.warmup + window;
  std::vector<std::uint64_t> set_by_second;
  double peak = 0.0;
  std::function<void()> sample = [&] {
    std::size_t held = 0;
    std::uint64_t set = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const QueryState& qs = svc.vehicle_agent(VehicleId{i}).query_state();
      held += qs.marks();
      set += qs.marks_set();
    }
    set_by_second.push_back(set);
    const SimTime now = world.sim().now();
    if (now >= from && now <= to && set_by_second.size() > lookback) {
      const std::uint64_t recent =
          set - set_by_second[set_by_second.size() - 1 - lookback];
      if (recent > 0) {
        peak = std::max(peak, static_cast<double>(held) /
                                  static_cast<double>(recent));
      }
    }
    world.sim().schedule_after(SimTime::from_sec(1.0), sample);
  };
  world.sim().schedule_after(SimTime::from_sec(1.0), sample);
  world.run();
  return peak;
}

TEST(QueryStateBoundTest, MarksDoNotGrowWithTheQueryWindow) {
  const double twice = peak_marks_per_recent_mark(SimTime::from_sec(80.0));
  const double four_times =
      peak_marks_per_recent_mark(SimTime::from_sec(160.0));
  std::printf("peak marks per mark set in 2H: 2x window %.3f, 4x window %.3f\n",
              twice, four_times);
  ASSERT_GT(twice, 0.0);
  EXPECT_LE(four_times, 1.1 * twice);
}

}  // namespace
}  // namespace hlsrg
