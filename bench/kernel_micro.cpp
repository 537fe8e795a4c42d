// Kernel microbenchmarks for the simulation engine hot paths
// (google-benchmark): event queue, RNG, neighbor index, contention-density
// recount, the radio's receiver pass, position→cell lookups, table
// operations, map + partition build, and a full small-world
// step as an end-to-end engine figure. The JSON-reporting engine-throughput bench that CI gates lives in
// micro_engine.cpp.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "core/location_table.h"
#include "grid/hierarchy.h"
#include "grid/partition.h"
#include "harness/world.h"
#include "mobility/mobility_model.h"
#include "net/neighbor_index.h"
#include "net/radio.h"
#include "obs/region_telemetry.h"
#include "roadnet/map_builder.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace hlsrg {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule_at(SimTime::from_us(rng.uniform_int(0, 1'000'000)),
                    [] { benchmark::DoNotOptimize(0); });
    }
    q.run_until(SimTime::from_sec(2));
    benchmark::DoNotOptimize(q.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueCancel(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(q.schedule_at(SimTime::from_us(i), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
    q.run_until(SimTime::from_sec(1));
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  double acc = 0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

void BM_RngUniformInt(benchmark::State& state) {
  Rng rng(1);
  std::int64_t acc = 0;
  for (auto _ : state) acc += rng.uniform_int(0, 999);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniformInt);

void BM_NeighborIndexRefresh(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  NodeRegistry reg;
  Rng rng(2);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 p{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    reg.add_node(p);
  }
  NeighborIndex index(reg, 500.0);
  std::int64_t t = 0;
  double step = 4.0;
  for (auto _ : state) {
    // Pushes a mobility tick: every node moves a few metres (back and forth,
    // so the cloud stays put). A refresh with no pose write is a no-op, so
    // the writes are what make each refresh a counting-sort rebuild.
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id{i};
      reg.set_position(id, reg.position(id) + Vec2{step, step});
    }
    step = -step;
    index.refresh(SimTime::from_us(++t));
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_NeighborIndexRefresh)->Arg(300)->Arg(700);

void BM_NeighborIndexQuery(benchmark::State& state) {
  NodeRegistry reg;
  Rng rng(3);
  for (int i = 0; i < 700; ++i) {
    const Vec2 p{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    reg.add_node(p);
  }
  NeighborIndex index(reg, 500.0);
  index.refresh(SimTime::from_us(1));
  std::vector<NodeId> out;
  for (auto _ : state) {
    out.clear();
    index.query({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)}, 500.0,
                NodeId{}, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_NeighborIndexQuery);

// The radio's receiver walks over one mobility tick at paper_dense density
// (1000 nodes on 2 km, 500 m range): a pose write resets the density cache,
// then every node broadcasts once, so each density is recounted on its
// first read, as after a real tick. The one rebuild is a small share of it.
void BM_NeighborIndexQueryWithDensity(benchmark::State& state) {
  constexpr std::size_t kNodes = 1000;
  NodeRegistry reg;
  Rng rng(5);
  for (std::size_t i = 0; i < kNodes; ++i) {
    reg.add_node({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)});
  }
  NeighborIndex index(reg, 500.0, RadioConfig{}.contention_free_neighbors);
  std::vector<NodeId> out;
  std::vector<std::int32_t> density;
  const NodeId mover{kNodes - 1};
  std::int64_t t = 0;
  for (auto _ : state) {
    reg.set_position(mover, reg.position(mover));
    index.refresh(SimTime::from_us(++t));
    for (std::size_t i = 0; i < kNodes; ++i) {
      const NodeId sender{i};
      out.clear();
      density.clear();
      index.query_with_density(reg.position(sender), 500.0, sender, &out,
                               &density);
      benchmark::DoNotOptimize(density.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kNodes) *
                          state.iterations());
}
BENCHMARK(BM_NeighborIndexQueryWithDensity);

// Node positions of an HLSRG world (vehicles and RSUs) after 10 simulated
// seconds: road-shaped, unlike a uniform cloud. Built once per process.
const NodeRegistry& world_snapshot(const ScenarioConfig& cfg) {
  static std::vector<std::unique_ptr<NodeRegistry>> snapshots;
  static std::vector<std::uint64_t> keys;
  const auto key = static_cast<std::uint64_t>(cfg.vehicles);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == key) return *snapshots[i];
  }
  World world(cfg, Protocol::kHlsrg);
  world.run_until(SimTime::from_sec(10.0));
  auto snap = std::make_unique<NodeRegistry>();
  for (std::size_t i = 0; i < world.registry().count(); ++i) {
    snap->add_node(world.registry().position(NodeId{i}));
  }
  keys.push_back(key);
  snapshots.push_back(std::move(snap));
  return *snapshots.back();
}

// perfbench's paper_dense (2 km, 1000 vehicles) and city_maintenance (8 km,
// 8000 vehicles) worlds.
ScenarioConfig paper_dense_world() { return paper_scenario(1000, 1); }
ScenarioConfig city_maintenance_world() {
  ScenarioConfig cfg = paper_scenario(8000, 1);
  cfg.map.size_m = 8000.0;
  return cfg;
}

// Every node's contention density recounted, as after a mobility tick: a
// pose write and a rebuild (untimed) drop every cached density, then each
// node's density is read once. Densities here are far above the
// contention-free threshold, so nearly every read is the exact count.
void BM_DensityRecount(benchmark::State& state, ScenarioConfig cfg) {
  NodeRegistry reg;
  const NodeRegistry& snap = world_snapshot(cfg);
  for (std::size_t i = 0; i < snap.count(); ++i) {
    reg.add_node(snap.position(NodeId{i}));
  }
  const RadioConfig radio;
  NeighborIndex index(reg, radio.range_m, radio.contention_free_neighbors);
  const NodeId mover{0u};
  std::int64_t t = 0;
  for (auto _ : state) {
    state.PauseTiming();
    reg.set_position(mover, reg.position(mover));
    index.refresh(SimTime::from_us(++t));
    state.ResumeTiming();
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < reg.count(); ++i) {
      sum += index.local_density(NodeId{i});
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(reg.count()) *
                          state.iterations());
}
BENCHMARK_CAPTURE(BM_DensityRecount, paper_dense, paper_dense_world());
BENCHMARK_CAPTURE(BM_DensityRecount, city_maintenance,
                  city_maintenance_world());

// The radio's receiver pass: one broadcast_each from every node of a
// paper_dense snapshot, with region telemetry attached as in a World. The
// snapshot never moves, so densities and regions are cached after the first
// iteration; the untimed drain dispatches the delivery events.
void BM_BroadcastReceiverPass(benchmark::State& state) {
  const ScenarioConfig cfg = paper_dense_world();
  const NodeRegistry& snap = world_snapshot(cfg);
  const RoadNetwork net = build_manhattan_map(cfg.map);
  const Partition part = build_partition(net);
  std::vector<double> x_edges;
  std::vector<double> y_edges;
  for (const BoundaryLine& l : part.x_lines) x_edges.push_back(l.coord);
  for (const BoundaryLine& l : part.y_lines) y_edges.push_back(l.coord);
  RegionTelemetry regions(std::move(x_edges), std::move(y_edges));
  Simulator sim(1);
  sim.set_regions(&regions);
  RadioMedium medium(sim, snap, cfg.radio);
  std::int64_t receivers = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < snap.count(); ++i) {
      const NodeId sender{i};
      receivers += medium.broadcast_each(sender, snap.position(sender),
                                         PacketKind::kNotification,
                                         [](NodeId) {});
    }
    state.PauseTiming();
    sim.run_until(sim.now() + SimTime::from_sec(1.0));
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(receivers);
  state.SetItemsProcessed(static_cast<std::int64_t>(snap.count()) *
                          state.iterations());
}
BENCHMARK(BM_BroadcastReceiverPass);

// Position→cell lookups on the 8 km city map (16x16 L1 cells): a fixed
// batch of random positions, each result kept live.
MapConfig city_map() {
  MapConfig map;
  map.size_m = 8000.0;
  return map;
}

struct CityGrid {
  CityGrid() : net(build_manhattan_map(city_map())),
               hierarchy(net, build_partition(net)) {
    Rng rng(6);
    positions.resize(4096);
    for (Vec2& p : positions) {
      p = {rng.uniform(0.0, 8000.0), rng.uniform(0.0, 8000.0)};
    }
  }
  RoadNetwork net;
  GridHierarchy hierarchy;
  std::vector<Vec2> positions;
};

void BM_GridL1At(benchmark::State& state) {
  const CityGrid city;
  for (auto _ : state) {
    for (const Vec2& p : city.positions) {
      benchmark::DoNotOptimize(city.hierarchy.l1_at(p));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(city.positions.size()) *
                          state.iterations());
}
BENCHMARK(BM_GridL1At);

void BM_RegionOf(benchmark::State& state) {
  const CityGrid city;
  const Partition& part = city.hierarchy.partition();
  std::vector<double> x_edges;
  std::vector<double> y_edges;
  for (const BoundaryLine& l : part.x_lines) x_edges.push_back(l.coord);
  for (const BoundaryLine& l : part.y_lines) y_edges.push_back(l.coord);
  const RegionTelemetry regions(std::move(x_edges), std::move(y_edges));
  for (auto _ : state) {
    for (const Vec2& p : city.positions) {
      benchmark::DoNotOptimize(regions.region_of(p));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(city.positions.size()) *
                          state.iterations());
}
BENCHMARK(BM_RegionOf);

// One mobility tick of the city_maintenance fleet (8 km map, 8000
// vehicles, the paper's mobility config) handed to one listener that does
// nothing with it: the advance phase plus the hand-over, no protocol.
void BM_MobilityTick(benchmark::State& state) {
  struct NoOpListener final : MovementListener {
    void on_tick_events(std::span<const TickEvent> events) override {
      benchmark::DoNotOptimize(events.data());
    }
  };
  const RoadNetwork net = build_manhattan_map(city_map());
  const MobilityConfig cfg = paper_scenario(8000, 1).mobility;
  Simulator sim(1);
  MobilityModel mob(sim, net, cfg);
  NoOpListener listener;
  mob.add_listener(&listener);
  mob.place_random_vehicles(8000);
  mob.start();
  double t = 0.0;
  for (auto _ : state) {
    t += kMobilityTickSec;
    sim.run_until(SimTime::from_sec(t));
  }
  state.SetItemsProcessed(8000 * state.iterations());
}
BENCHMARK(BM_MobilityTick);

// L3 gossip merge: 8000 summaries, in shuffled vehicle order, merged into an
// L3 table that already holds all of them (the steady state once gossip has
// spread the fleet to every L3 RSU).
void BM_L3TableMerge(benchmark::State& state) {
  constexpr std::uint32_t kVehicles = 8000;
  std::vector<L3Summary> records(kVehicles);
  for (std::uint32_t i = 0; i < kVehicles; ++i) {
    records[i].vehicle = VehicleId{i};
    records[i].time = SimTime::from_sec(1.0 + i % 7);
  }
  Rng rng(9);
  for (std::size_t i = records.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(records[i], records[j]);
  }
  L3Table table;
  table.merge(records);
  for (auto _ : state) {
    table.merge(records);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(kVehicles * state.iterations());
}
BENCHMARK(BM_L3TableMerge);

// Per-vehicle L1 table churn: a center vehicle's table takes a handful of
// updates, loses one vehicle to a grid change, purges the stale ones and is
// released when the vehicle leaves the center. Every iteration starts from
// an empty table, so it runs the small-table growth path that
// BM_L3TableMerge (one table at steady state) never reaches.
void BM_L1TableChurn(benchmark::State& state) {
  constexpr std::uint32_t kRecords = 6;
  std::vector<L1Record> records(kRecords);
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    records[i].vehicle = VehicleId{i * 1301 + 17};  // scattered over a fleet
    records[i].time = SimTime::from_sec(1.0 + i);
  }
  L1Table table;
  for (auto _ : state) {
    for (const L1Record& r : records) table.record(r);
    table.erase(records[2].vehicle);
    // Cutoff 3.5 s: evicts the records stamped 1 s and 2 s.
    benchmark::DoNotOptimize(
        table.purge(SimTime::from_sec(5.5), SimTime::from_sec(2.0)));
    table.release();
  }
  state.SetItemsProcessed(kRecords * state.iterations());
}
BENCHMARK(BM_L1TableChurn);

void BM_MapBuild(benchmark::State& state) {
  for (auto _ : state) {
    const RoadNetwork net = build_manhattan_map({});
    benchmark::DoNotOptimize(net.segment_count());
  }
}
BENCHMARK(BM_MapBuild);

void BM_PartitionBuild(benchmark::State& state) {
  const RoadNetwork net = build_manhattan_map({});
  for (auto _ : state) {
    const Partition p = build_partition(net);
    benchmark::DoNotOptimize(p.cols());
  }
}
BENCHMARK(BM_PartitionBuild);

void BM_WorldConstruct(benchmark::State& state) {
  for (auto _ : state) {
    ScenarioConfig cfg = paper_scenario(300, 1);
    World world(cfg, Protocol::kHlsrg);
    benchmark::DoNotOptimize(world.planned_queries());
  }
}
BENCHMARK(BM_WorldConstruct);

void BM_WorldSimulatedSecond(benchmark::State& state) {
  // Cost of one simulated second of the full HLSRG world (mobility + radio +
  // protocol), amortized.
  ScenarioConfig cfg = paper_scenario(static_cast<int>(state.range(0)), 1);
  cfg.grace = SimTime::from_sec(100000);  // never ends on its own
  World world(cfg, Protocol::kHlsrg);
  double t = 1.0;
  for (auto _ : state) {
    world.run_until(SimTime::from_sec(t));
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldSimulatedSecond)->Arg(300)->Arg(700)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hlsrg
