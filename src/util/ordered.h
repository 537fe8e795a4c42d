// Deterministic iteration over hash containers (namespace hlsrg::det).
//
// The determinism contract (DESIGN.md §12): simulation state may live in
// unordered containers — lookup and membership are order-free — but no
// digest-affecting behavior may depend on their iteration order, because
// that order varies across standard libraries, across insert/erase
// histories, and (once the engine shards by L3 region) across shard
// assignments. Any loop that *iterates* an unordered container in
// digest-affecting code must either go through one of these sorted
// snapshot views or carry an explicit
// `// HLSRG_LINT_ALLOW(unordered-iteration): <reason>` annotation proving
// the loop body is order-insensitive. tools/lint/determinism_lint.py
// enforces this mechanically (rule `unordered-iteration`).
//
// The views take an O(n log n) snapshot; that is the price of a stable
// order and is paid only on the cold paths that enumerate whole tables
// (crash drains, topology dumps, report serialization). Hot paths should
// keep a canonical view of their own (FreshnessTable::snapshot() in
// util/freshness_table.h) or redesign so they never enumerate.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

namespace hlsrg::det {

// Sorted snapshot of a map's entries as pointers to the container's own
// (key, value) pairs — no value copies, entries stay mutable through the
// non-const overload. Ordered by key (or by `cmp` on keys). The snapshot
// is invalidated by any rehash/insert/erase on the underlying container;
// take it, loop it, drop it.
//
//   for (auto* e : det::sorted_view(pending_)) use(e->first, e->second);
template <typename Map, typename Compare>
[[nodiscard]] std::vector<typename Map::value_type*> sorted_view(
    Map& map, Compare cmp) {
  std::vector<typename Map::value_type*> view;
  view.reserve(map.size());
  for (auto it = map.begin(); it != map.end(); ++it) view.push_back(&*it);
  std::sort(view.begin(), view.end(),
            [&cmp](const typename Map::value_type* a,
                   const typename Map::value_type* b) {
              return cmp(a->first, b->first);
            });
  return view;
}

template <typename Map, typename Compare>
[[nodiscard]] std::vector<const typename Map::value_type*> sorted_view(
    const Map& map, Compare cmp) {
  std::vector<const typename Map::value_type*> view;
  view.reserve(map.size());
  for (auto it = map.begin(); it != map.end(); ++it) view.push_back(&*it);
  std::sort(view.begin(), view.end(),
            [&cmp](const typename Map::value_type* a,
                   const typename Map::value_type* b) {
              return cmp(a->first, b->first);
            });
  return view;
}

template <typename Map>
[[nodiscard]] auto sorted_view(Map& map) {
  using Key = typename Map::key_type;
  return sorted_view(map, [](const Key& a, const Key& b) { return a < b; });
}

// Sorted snapshot of a set's (or map's) keys, by value. Use when the loop
// needs only the keys — cheaper to reason about than sorted_view and the
// only option for std::unordered_set, whose elements are const.
//
//   for (NodeId n : det::sorted_keys(down_nodes_)) ...
template <typename Container>
[[nodiscard]] std::vector<typename Container::key_type> sorted_keys(
    const Container& c) {
  std::vector<typename Container::key_type> keys;
  keys.reserve(c.size());
  for (const auto& entry : c) {
    if constexpr (std::is_same_v<typename Container::key_type,
                                 typename Container::value_type>) {
      keys.push_back(entry);
    } else {
      keys.push_back(entry.first);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Ordered container aliases for state that is enumerated as often as it is
// probed: the tree containers iterate in key order natively, so loops over
// them are deterministic without a snapshot. Prefer these over unordered
// containers + sorted_view when iteration dominates.
template <typename Key, typename Value, typename Compare = std::less<Key>>
using map = std::map<Key, Value, Compare>;

template <typename Key, typename Compare = std::less<Key>>
using set = std::set<Key, Compare>;

}  // namespace hlsrg::det
