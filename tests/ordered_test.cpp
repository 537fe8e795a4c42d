// Tests for util/ordered.h — the sorted snapshot views that make iteration
// over hash containers deterministic (DESIGN.md §12, lint rule
// `unordered-iteration`).
#include "util/ordered.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace hlsrg {
namespace {

TEST(SortedView, IteratesMapEntriesInKeyOrder) {
  std::unordered_map<int, std::string> m;
  for (int k : {7, 1, 42, 3, 19}) {
    m.emplace(k, std::string("v").append(std::to_string(k)));
  }

  std::vector<int> keys;
  for (const auto* e : det::sorted_view(m)) keys.push_back(e->first);
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 7, 19, 42}));
}

TEST(SortedView, EntriesAreMutableThroughTheView) {
  std::unordered_map<int, int> m{{1, 10}, {2, 20}, {3, 30}};
  for (auto* e : det::sorted_view(m)) e->second += 1;
  EXPECT_EQ(m[1], 11);
  EXPECT_EQ(m[2], 21);
  EXPECT_EQ(m[3], 31);
}

TEST(SortedView, CustomComparatorReversesOrder) {
  std::unordered_map<int, int> m{{1, 0}, {5, 0}, {3, 0}};
  std::vector<int> keys;
  for (const auto* e :
       det::sorted_view(m, [](int a, int b) { return a > b; })) {
    keys.push_back(e->first);
  }
  EXPECT_EQ(keys, (std::vector<int>{5, 3, 1}));
}

TEST(SortedView, ConstMapYieldsConstView) {
  const std::unordered_map<int, int> m{{2, 20}, {1, 10}};
  auto view = det::sorted_view(m);
  static_assert(std::is_same_v<decltype(view.front()),
                               const std::pair<const int, int>*&>);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.front()->first, 1);
}

TEST(SortedView, StableAcrossInsertionOrders) {
  // The whole point: two histories, one iteration order.
  std::unordered_map<int, int> a;
  std::unordered_map<int, int> b;
  for (int k = 0; k < 100; ++k) a.emplace(k, k);
  for (int k = 99; k >= 0; --k) b.emplace(k, k);

  std::vector<int> ka;
  std::vector<int> kb;
  for (const auto* e : det::sorted_view(a)) ka.push_back(e->first);
  for (const auto* e : det::sorted_view(b)) kb.push_back(e->first);
  EXPECT_EQ(ka, kb);
}

TEST(SortedKeys, WorksForSetsAndMaps) {
  std::unordered_set<int> s{9, 2, 5};
  EXPECT_EQ(det::sorted_keys(s), (std::vector<int>{2, 5, 9}));

  std::unordered_map<int, std::string> m{{4, "d"}, {1, "a"}, {3, "c"}};
  EXPECT_EQ(det::sorted_keys(m), (std::vector<int>{1, 3, 4}));
}

TEST(SortedKeys, EmptyContainer) {
  std::unordered_set<int> s;
  EXPECT_TRUE(det::sorted_keys(s).empty());
  std::unordered_map<int, int> m;
  EXPECT_TRUE(det::sorted_view(m).empty());
}

TEST(OrderedAliases, TreeContainersIterateInKeyOrder) {
  det::map<int, int> m;
  m[3] = 30;
  m[1] = 10;
  m[2] = 20;
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 3}));

  det::set<int> s{5, 1, 3};
  EXPECT_EQ(*s.begin(), 1);
}

}  // namespace
}  // namespace hlsrg
