// Tests for util: tagged ids, text formatting, and the
// bucketed axis index against a std::upper_bound reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "grid/partition.h"
#include "roadnet/map_builder.h"
#include "sim/rng.h"
#include "util/args.h"
#include "util/axis_index.h"
#include "util/format.h"
#include "util/tagged_id.h"

namespace hlsrg {
namespace {

TEST(TaggedIdTest, DefaultConstructedIsInvalid) {
  VehicleId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), VehicleId::kInvalid);
}

TEST(TaggedIdTest, ExplicitValueIsValid) {
  VehicleId id{std::uint32_t{42}};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
  EXPECT_EQ(id.index(), std::size_t{42});
}

TEST(TaggedIdTest, ComparisonIsByValue) {
  VehicleId a{std::uint32_t{1}};
  VehicleId b{std::uint32_t{2}};
  VehicleId c{std::uint32_t{1}};
  EXPECT_LT(a, b);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
}

TEST(TaggedIdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<VehicleId, IntersectionId>);
  static_assert(!std::is_convertible_v<VehicleId, IntersectionId>);
  static_assert(!std::is_convertible_v<VehicleId, int>);
}

TEST(TaggedIdTest, HashWorksInUnorderedContainers) {
  std::unordered_set<VehicleId> set;
  set.insert(VehicleId{std::uint32_t{1}});
  set.insert(VehicleId{std::uint32_t{2}});
  set.insert(VehicleId{std::uint32_t{1}});
  EXPECT_EQ(set.size(), 2u);
}

TEST(TaggedIdTest, StreamsValueOrInvalid) {
  std::ostringstream os;
  os << VehicleId{std::uint32_t{5}} << ' ' << VehicleId{};
  EXPECT_EQ(os.str(), "5 <invalid>");
}

// --- TextTable / format ------------------------------------------------------

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t;
  t.add_row({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator line of dashes present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTableTest, CsvEscapesSpecialCells) {
  TextTable t;
  t.add_row({"a,b", "plain", "say \"hi\""});
  const std::string csv = t.render_csv();
  EXPECT_EQ(csv, "\"a,b\",plain,\"say \"\"hi\"\"\"\n");
}

TEST(FormatTest, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(FormatTest, FmtPercentHandlesZeroDenominator) {
  EXPECT_EQ(fmt_percent(1, 0), "n/a");
  EXPECT_EQ(fmt_percent(1, 2, 1), "50.0%");
}

// --- ArgParser --------------------------------------------------------------

// argv helper: gtest-owned storage so the char** stays valid for the call.
std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> out;
  for (std::string& a : args) out.push_back(a.data());
  return out;
}

TEST(ArgParserTest, FlagsAndValuesParse) {
  ArgParser p("test");
  bool flag = false;
  int n = 0;
  double x = 0.0;
  std::string s;
  p.add_flag("--flag", "a flag", &flag);
  p.add_int("--n", "N", "an int", &n);
  p.add_double("--x", "X", "a double", &x);
  p.add_string("--s", "S", "a string", &s);
  std::vector<std::string> args = {"prog", "--flag", "--n", "7",
                                   "--x=2.5", "--s", "hi"};
  std::vector<char*> argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(flag);
  EXPECT_EQ(n, 7);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(s, "hi");
}

TEST(ArgParserTest, PositionalsFillInDeclarationOrder) {
  ArgParser p("test");
  std::string in, out = "unset";
  int n = 0;
  p.add_positional("IN", "input file", &in);
  p.add_positional_opt("OUT", "output file", &out);
  p.add_int("--n", "N", "an int", &n);
  std::vector<std::string> args = {"prog", "a.svg", "--n", "3", "b.svg"};
  std::vector<char*> argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(in, "a.svg");
  EXPECT_EQ(out, "b.svg");
  EXPECT_EQ(n, 3);
}

TEST(ArgParserTest, MissingRequiredPositionalFails) {
  ArgParser p("test");
  std::string in;
  p.add_positional("IN", "input file", &in);
  std::vector<std::string> args = {"prog"};
  std::vector<char*> argv = argv_of(args);
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.exit_code(), 2);
}

TEST(ArgParserTest, AbsentOptionalPositionalLeftUntouched) {
  ArgParser p("test");
  std::string out = "default.svg";
  p.add_positional_opt("OUT", "output file", &out);
  std::vector<std::string> args = {"prog"};
  std::vector<char*> argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(out, "default.svg");
}

TEST(ArgParserTest, ExtraOperandWithNoSlotFails) {
  ArgParser p("test");
  std::string in;
  p.add_positional("IN", "input file", &in);
  std::vector<std::string> args = {"prog", "a.svg", "stray"};
  std::vector<char*> argv = argv_of(args);
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.exit_code(), 2);
}

TEST(ArgParserTest, UnknownFlagSuggestsNearMiss) {
  ArgParser p("test");
  int replicas = 0;
  p.add_int("--replicas", "N", "replicas", &replicas);
  std::vector<std::string> args = {"prog", "--replica", "3"};
  std::vector<char*> argv = argv_of(args);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("did you mean '--replicas'"), std::string::npos) << err;
  EXPECT_EQ(p.exit_code(), 2);
}

TEST(ArgParserTest, WildlyUnrelatedFlagGetsNoSuggestion) {
  ArgParser p("test");
  int replicas = 0;
  p.add_int("--replicas", "N", "replicas", &replicas);
  std::vector<std::string> args = {"prog", "--frobnicate"};
  std::vector<char*> argv = argv_of(args);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("did you mean"), std::string::npos) << err;
}

TEST(ArgParserTest, DuplicateRegistrationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ArgParser p("test");
        bool a = false;
        bool b = false;
        p.add_flag("--same", "first", &a);
        p.add_flag("--same", "second", &b);
      },
      "duplicate flag registration");
}

TEST(ArgParserTest, UsageListsPositionalsInSynopsis) {
  ArgParser p("demo");
  std::string in, out;
  p.add_positional("IN", "input", &in);
  p.add_positional_opt("OUT", "output", &out);
  const std::string usage = p.usage();
  EXPECT_NE(usage.find("IN [OUT]"), std::string::npos) << usage;
}

// ---------------------------------------------------------------------------
// AxisIndex
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

// upper_bound(edges, v) - 1 clamped to [0, n - 1]: half-open intervals,
// outside values clamped to the end intervals.
int reference_interval(const std::vector<double>& edges, double v) {
  const auto it = std::upper_bound(edges.begin(), edges.end(), v);
  const int idx = static_cast<int>(it - edges.begin()) - 1;
  return std::clamp(idx, 0, static_cast<int>(edges.size()) - 2);
}

// Probes every edge exactly, the next double on both sides of it, every
// midpoint, points just outside the span, and the far values.
std::vector<double> probes_for(const std::vector<double>& edges) {
  std::vector<double> probes = {-kInf,
                                kInf,
                                -1e12,
                                1e12,
                                edges.front() - 1.0,
                                edges.back() + 1.0,
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::max()};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    probes.push_back(edges[i]);
    probes.push_back(std::nextafter(edges[i], -kInf));
    probes.push_back(std::nextafter(edges[i], kInf));
    if (i + 1 < edges.size()) probes.push_back(0.5 * (edges[i] + edges[i + 1]));
  }
  return probes;
}

void expect_matches_reference(const std::vector<double>& edges) {
  const AxisIndex index(edges);
  ASSERT_EQ(index.intervals(), static_cast<int>(edges.size()) - 1);
  EXPECT_EQ(index.edges(), edges);
  for (double v : probes_for(edges)) {
    ASSERT_EQ(index.index(v), reference_interval(edges, v))
        << "v=" << v << " over " << edges.size() - 1 << " intervals";
  }
}

std::vector<double> random_edges(Rng& rng, int intervals, double min_gap,
                                 double max_gap) {
  std::vector<double> edges = {rng.uniform(-5000.0, 5000.0)};
  for (int i = 0; i < intervals; ++i) {
    edges.push_back(edges.back() + rng.uniform(min_gap, max_gap));
  }
  return edges;
}

TEST(AxisIndexTest, RandomIrregularEdgesMatchUpperBound) {
  Rng rng(20);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    expect_matches_reference(random_edges(rng, n, 1.0, 900.0));
  }
}

TEST(AxisIndexTest, TinyLastGapMatchesUpperBound) {
  // The partition appends the map-edge line after its last road, so the
  // last gap can be about a metre on otherwise ~500 m cells.
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> edges =
        random_edges(rng, static_cast<int>(rng.uniform_int(1, 20)), 300.0,
                     700.0);
    edges.push_back(edges.back() + rng.uniform(0.5, 1.5));
    expect_matches_reference(edges);
  }
}

TEST(AxisIndexTest, MoreIntervalsThanBucketsMatchUpperBound) {
  Rng rng(22);
  expect_matches_reference(random_edges(rng, 3000, 1e-3, 50.0));
  // Gaps spanning many orders of magnitude.
  std::vector<double> edges = {0.0};
  for (int i = 0; i < 60; ++i) {
    edges.push_back(edges.back() + std::pow(10.0, rng.uniform(-9.0, 4.0)));
  }
  expect_matches_reference(edges);
}

TEST(AxisIndexTest, SingleIntervalMatchesUpperBound) {
  expect_matches_reference({0.0, 2000.0});
  expect_matches_reference({-3.0, 7.0});
  expect_matches_reference({1e6, std::nextafter(1e6, kInf)});
}

TEST(AxisIndexTest, ManhattanPartitionsMatchUpperBound) {
  for (double size : {2000.0, 4000.0, 8000.0}) {
    MapConfig map;
    map.size_m = size;
    const Partition p = build_partition(build_manhattan_map(map));
    for (const auto* lines : {&p.x_lines, &p.y_lines}) {
      std::vector<double> edges;
      for (const BoundaryLine& l : *lines) edges.push_back(l.coord);
      ASSERT_EQ(static_cast<double>(edges.size() - 1), size / 500.0);
      expect_matches_reference(edges);
    }
  }
}

TEST(AxisIndexTest, NanMapsToFirstInterval) {
  const AxisIndex index({0.0, 500.0, 1000.0, 1001.0});
  EXPECT_EQ(index.index(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(index.index(-std::numeric_limits<double>::quiet_NaN()), 0);
}

TEST(AxisIndexTest, UnorderedEdgesStayInRange) {
  // Unordered lines are the grid auditor's to report; the index must only
  // stay in range on them.
  for (const std::vector<double>& edges :
       {std::vector<double>{500.0, 0.0, 1000.0, 1500.0},
        std::vector<double>{2000.0, 1000.0, 0.0},
        std::vector<double>{7.0, 7.0, 7.0}}) {
    const AxisIndex index(edges);
    for (double v : probes_for(edges)) {
      const int i = index.index(v);
      EXPECT_GE(i, 0) << v;
      EXPECT_LT(i, index.intervals()) << v;
    }
  }
}

}  // namespace
}  // namespace hlsrg
