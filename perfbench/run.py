#!/usr/bin/env python3
"""HLSRG benchmark: ns per vehicle-second plus the paper's metrics.

Runs one named workload as HLSRG worlds on the generated Manhattan map, one
world per process and one thread per process, checks every world's outputs,
and prints the benchmark's metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The first call builds perfbench/ (and the simulator sources under src/) with
CMake into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when
that variable is set. Run it from anywhere inside a checkout.

Load model. paper_dense and city_maintenance issue one-shot queries at
scheduled simulated times (closed workload: each source asks once).
hotspot_service is an open loop in simulated time (Poisson arrivals that do
not wait for earlier answers). On the host each world is a single-threaded
batch run, one world per process.

Seeds. --seed N expands into world seeds N*1000 + i for i < worlds. With
--trace 0 every world runs untraced and the end-to-end metrics pool them;
world 0 also runs traced and once more untraced, and all three must agree.
With --trace 1 the first TRACED_WORLDS worlds run both untraced and traced;
the per-layer metrics come from those runs. Simulated metrics and exact
counts depend on the seed only; host times are medians of repeated runs.
Whatever time remains of --seconds after that schedule goes to further
repeats, round robin over the seeds.

A world fails when its process fails, an auditor reports a finding, a
per-kind ledger row does not close (offered == delivered + dropped), its
query accounting does not add up, or two runs of its seed (untraced, traced,
untraced again) differ in digest or in any simulated output. "attempted" and
"failed" count world runs.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# A run, after the build, must end within 180 s even if a world hangs.
RUN_LIMIT_S = 170
TRACED_WORLDS = 4
SEED_STRIDE = 1000

# worlds: world seeds per run; setups: World constructions per process (the
# construction takes milliseconds, so each process repeats it and setup_s is
# the median over all of them).
WORKLOADS = {
    "paper_dense": {
        "worlds": 20,
        "setups": 30,
        "load": "one-shot queries from 5% of 1000 vehicles at uniform "
                "simulated times in a 10 s window (closed: one query per "
                "source)",
    },
    "city_maintenance": {
        "worlds": 10,
        "setups": 10,
        "load": "one-shot queries from 0.5% of 8000 vehicles at uniform "
                "simulated times in a 15 s window (closed: one query per "
                "source)",
    },
    "hotspot_service": {
        "worlds": 8,
        "setups": 30,
        "load": "open loop in simulated time: Poisson arrivals at 35 q/s "
                "for 40 s, 80% to 5 hot vehicles, shed above 256 "
                "outstanding",
    },
}

# Fields copied from one world's output so traced and untraced runs of a
# seed can be compared; all of them are simulated, so they must be equal.
SIMULATED_FIELDS = ("digest", "metrics", "ledger", "delays_us", "engine",
                    "registry", "table_records", "table_bytes",
                    "queries_unsettled")


class BenchError(Exception):
    pass


# --- building and running worlds ---------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR")
    base = Path(base) if base else Path(".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    out = build_dir()
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", str(out), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "world_run"


def nearest_rank(sorted_values, q):
    """Nearest-rank percentile, the rule LatencyStat::percentile_ms uses."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def world_problems(w):
    """Consistency checks on one world's own output."""
    problems = []
    m = w["metrics"]
    problems += ["audit: " + f for f in w["audit_findings"]]
    problems += ["ledger row does not close: " + k
                 for k in w["ledger_open_kinds"]]
    if m["queries_issued"] + m["queries_shed"] != m["queries_offered"]:
        problems.append("issued + shed != offered")
    settled = m["queries_succeeded"] + m["queries_failed"]
    if settled + w["queries_unsettled"] != m["queries_issued"]:
        problems.append("succeeded + failed + unsettled != issued")
    delays = sorted(w["delays_us"])
    lat = w["latency"]
    if not len(delays) == lat["count"] == m["queries_succeeded"]:
        problems.append("delay samples != successful queries")
    for q, key in ((0.5, "p50_ms"), (0.9, "p90_ms"), (0.99, "p99_ms")):
        if nearest_rank(delays, q) * 1e-3 != lat[key]:
            problems.append("pooled percentile rule differs at " + key)
    return problems


class Runner:
    """Runs worlds one process at a time, keeps every good world's output
    under (seed, traced), and records every failed world."""

    def __init__(self, binary, workload, small):
        self.binary = binary
        self.workload = workload
        self.small = small
        self.attempted = 0
        self.failures = []  # one message per failed world run
        self.outputs = {}   # (seed, traced) -> outputs in run order
        self.durations = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, seed, traced, setups=1):
        self.attempted += 1
        problems = self._problems(seed, traced, setups)
        if problems:
            self.failures.append(f"seed {seed}: " + "; ".join(problems))

    def _problems(self, seed, traced, setups):
        cmd = [str(self.binary), "--workload", self.workload,
               "--seed", str(seed), "--setups", str(setups)]
        if traced:
            cmd.append("--profile")
        if self.small:
            cmd.append("--small")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            return ["timed out"]
        self.durations.append(time.monotonic() - started)
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        try:
            w = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return ["output is not JSON"]
        problems = world_problems(w)
        for key in ((seed, False), (seed, True)):
            if key not in self.outputs:
                continue
            ref = self.outputs[key][0]
            problems += [f"{field} differs between runs of the same seed"
                         for field in SIMULATED_FIELDS if ref[field] != w[field]]
        if not problems:
            self.outputs.setdefault((seed, traced), []).append(w)
        return problems

    def typical_duration(self):
        return statistics.median(self.durations) if self.durations else 0.0


def run_schedule(runner, seeds, trace, seconds):
    """The fixed schedule, then round-robin repeats while time remains."""
    started = time.monotonic()
    setups = WORKLOADS[runner.workload]["setups"]
    if trace:
        units = [[(s, False, 1), (s, True, 1)] for s in seeds]
        units.append([(seeds[0], False, 1)])
        repeat = [[(s, False, 1), (s, True, 1)] for s in seeds]
    else:
        units = [[(s, False, setups)] for s in seeds]
        units.append([(seeds[0], True, 1)])
        units.append([(seeds[0], False, setups)])
        repeat = [[(s, False, setups)] for s in seeds[1:] + seeds[:1]]
    for seed, traced, n in (run for unit in units for run in unit):
        if runner.failures:
            return
        runner.run(seed, traced, n)
    i = 0
    while not runner.failures and repeat:
        unit = repeat[i % len(repeat)]
        need = runner.typical_duration() * len(unit)
        if time.monotonic() - started + need > seconds:
            break
        for seed, traced, n in unit:
            runner.run(seed, traced, n)
        i += 1


# --- pooling ----------------------------------------------------------------

class Pool:
    """The worlds of one run: simulated outputs once per seed, host times
    per seed as medians over its repeats."""

    def __init__(self, runner, seeds, traced):
        self.untraced = [runner.outputs[(s, False)] for s in seeds]
        self.traced = ([runner.outputs[(s, True)] for s in seeds]
                       if traced else [])
        self.worlds = [runs[0] for runs in (self.traced or self.untraced)]

    def total(self, fn):
        return sum(fn(w) for w in self.worlds)

    def metric(self, key):
        return self.total(lambda w: w["metrics"][key])

    def vehicle_seconds(self):
        return self.total(vehicle_seconds)

    def delays_ms(self):
        return sorted(d * 1e-3 for w in self.worlds for d in w["delays_us"])

    def ledger(self, kind, column="offered"):
        return self.total(lambda w: w["ledger"].get(kind, {}).get(column, 0))

    def profile(self, scope, column):
        """Sum over seeds of the per-seed median of a profiler column, ns."""
        return sum(statistics.median(r["profile"].get(scope, {})
                                     .get(column, 0) for r in runs)
                   for runs in self.traced)

    @staticmethod
    def seed_mean(runs_per_seed, fn):
        """Mean over seeds of the median of fn over each seed's runs."""
        return statistics.mean(statistics.median(fn(r) for r in runs)
                               for runs in runs_per_seed)


def run_ns(w):
    return w["warmup_ns"] + w["query_phase_ns"]


def vehicle_seconds(w, seconds_key="sim_seconds"):
    return w["vehicles"] * w[seconds_key]


def ratio(num, den):
    return num / den if den else 0.0


def wired_offers(w):
    hops = w["registry"]["histograms"].get("wired.message_hops", {})
    return (hops.get("count", 0)
            + w["registry"]["counters"].get("wired.unreachable", 0))


def radio_offers(w):
    total = sum(row["offered"] for row in w["ledger"].values())
    return total - wired_offers(w)


def hist_total(p, name, column):
    return p.total(lambda w: w["registry"]["histograms"]
                   .get(name, {}).get(column, 0))


# --- metric definitions --------------------------------------------------------
# Names and units live in BENCHMARK.json; each entry here gives the formula
# and a note with the sample count behind the figure.

def e2e_metrics(p):
    offered = p.metric("queries_offered")
    succeeded = p.metric("queries_succeeded")
    delays = p.delays_ms()
    n = len(delays)
    worlds = len(p.worlds)
    window = p.worlds[0]["window_seconds"]
    setups = [ns / 1e9 for runs in p.untraced for r in runs
              for ns in r["setup_ns"]]
    processes = sum(len(runs) for runs in p.untraced)

    def beyond(q):
        return n - max(1, math.ceil(q * n)) if n else 0

    return {
        "ns_per_vehicle_sim_s": (
            p.seed_mean(p.untraced, lambda r: run_ns(r) / vehicle_seconds(r)),
            f"mean over {worlds} worlds of the median wall ns of "
            f"World::run, {processes} runs"),
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)} World constructions"),
        "peak_rss_mb": (
            p.seed_mean(p.untraced, lambda r: r["peak_rss_bytes"] / 1e6),
            f"mean over {worlds} worlds of the median of {processes} "
            "processes, one world each"),
        "query_success_rate": (
            ratio(succeeded, offered),
            f"offered {offered}, failed {offered - succeeded} "
            "(shed, failed and unsettled)"),
        "query_delay_p50_ms": (nearest_rank(delays, 0.5),
                               f"{n} successful queries"),
        "query_delay_p99_ms": (nearest_rank(delays, 0.99),
                               f"{n} successful queries, "
                               f"{beyond(0.99)} beyond p99"),
        "goodput_qps": (succeeded / (worlds * window),
                        f"{succeeded} successes in {worlds} x {window:g} s "
                        "query windows"),
        "query_tx_per_query": (
            ratio(p.metric("query_transmissions")
                  + p.metric("wired_messages"), offered),
            f"query radio tx + wired messages over {offered} queries"),
        "update_packets_per_vehicle_s": (
            p.metric("update_packets_originated") / p.vehicle_seconds(),
            f"{p.metric('update_packets_originated')} update packets"),
        "radio_tx_per_vehicle_s": (
            (p.metric("radio_broadcasts") + p.metric("radio_unicasts"))
            / p.vehicle_seconds(),
            "radio broadcasts + unicast attempts"),
    }


def delay_p90(p):
    """Reported, not gated: on paper_dense the share of successes that waited
    for the 5 s ACK-timeout retry sits near 10%, so p90 jumps between
    ~35 ms and ~5 s from seed to seed."""
    delays = p.delays_ms()
    beyond = len(delays) - max(1, math.ceil(0.9 * len(delays)))
    return nearest_rank(delays, 0.9), beyond


ALL = tuple(WORKLOADS)
HOTSPOT = ("hotspot_service",)


def layer_metrics(p):
    """Per-layer metrics over the traced worlds: (value, workloads it
    applies to, may it be 0 there, the end-to-end metric and workload it
    should move). Counts and profiler times are sums over the worlds."""
    vs = p.vehicle_seconds()
    events = p.total(lambda w: w["engine"]["events_dispatched"])
    offers = p.total(radio_offers)
    notify = p.ledger("notification")
    hits = p.metric("server_lookup_hits")
    rsu_hits = p.metric("rsu_lookup_hits")
    cache_hits = p.metric("cache_hits")
    flushes = p.metric("batch_flushes")
    partition = [ns for runs in p.traced for r in runs
                 for ns in r["partition_replay"]["ns"]]
    overhead = [statistics.median(run_ns(r) for r in t)
                / statistics.median(run_ns(r) for r in u) - 1.0
                for t, u in zip(p.traced, p.untraced)]
    ms = 1e-6
    return {
        "harness.warmup_ns_per_vehicle_s": (
            p.seed_mean(p.untraced, lambda r: r["warmup_ns"]
                        / vehicle_seconds(r, "warmup_seconds")),
            ALL, False, "ns_per_vehicle_sim_s on city_maintenance"),
        "harness.query_phase_ns_per_vehicle_s": (
            p.seed_mean(p.untraced, lambda r: r["query_phase_ns"]
                        / (vehicle_seconds(r) - vehicle_seconds(
                            r, "warmup_seconds"))),
            ALL, False,
            "ns_per_vehicle_sim_s on paper_dense and hotspot_service"),
        "grid.partition_s": (statistics.median(partition) / 1e9, ALL, False,
                             "setup_s on city_maintenance"),
        "sim.events_dispatched": (events, ALL, False,
                                  "ns_per_vehicle_sim_s on paper_dense"),
        "sim.events_per_vehicle_s": (events / vs, ALL, False,
                                     "ns_per_vehicle_sim_s on paper_dense"),
        "sim.peak_queue_depth": (
            max(w["engine"]["peak_queue_depth"] for w in p.worlds), ALL,
            False, "ns_per_vehicle_sim_s and peak_rss_mb on paper_dense"),
        "sim.dispatch_self_ms": (p.profile("dispatch", "exclusive_ns") * ms,
                                 ALL, False,
                                 "ns_per_vehicle_sim_s on paper_dense"),
        "mobility.replay_ns_per_vehicle_s": (
            p.seed_mean(p.traced, lambda r: r["mobility_replay"]["ns"]
                        / vehicle_seconds(r)),
            ALL, False, "ns_per_vehicle_sim_s on city_maintenance"),
        "mobility.moves": (
            sum(runs[0]["mobility_replay"]["moves"] for runs in p.traced),
            ALL, False, "ns_per_vehicle_sim_s on city_maintenance"),
        "neighbor_index.rebuilds": (
            sum(runs[0]["profile"].get("neighbor_index_rebuild", {})
                .get("calls", 0) for runs in p.traced),
            ALL, False, "ns_per_vehicle_sim_s on city_maintenance"),
        "neighbor_index.rebuild_ms": (
            p.profile("neighbor_index_rebuild", "inclusive_ns") * ms, ALL,
            False, "ns_per_vehicle_sim_s on city_maintenance"),
        "neighbor_index.walk_ns": (
            p.seed_mean(p.traced, lambda r: statistics.median(
                r["neighbor_replay"]["ns"]) / r["neighbor_replay"]["walks"]),
            ALL, False, "ns_per_vehicle_sim_s on paper_dense"),
        "neighbor_index.receivers_per_walk": (
            ratio(sum(runs[0]["neighbor_replay"]["receivers"]
                      for runs in p.traced),
                  sum(runs[0]["neighbor_replay"]["walks"]
                      for runs in p.traced)),
            ALL, False, "ns_per_vehicle_sim_s on paper_dense"),
        "radio.broadcasts": (p.metric("radio_broadcasts"), ALL, False,
                             "radio_tx_per_vehicle_s on paper_dense"),
        "radio.unicasts": (p.metric("radio_unicasts"), ALL, False,
                           "radio_tx_per_vehicle_s on paper_dense"),
        "radio.offers": (offers, ALL, False,
                         "ns_per_vehicle_sim_s on paper_dense"),
        "radio.drop_ratio": (ratio(p.metric("radio_drops"), offers), ALL,
                             False, "query_success_rate on paper_dense"),
        "radio.broadcast_self_ms": (
            p.profile("radio_broadcast", "exclusive_ns") * ms, ALL, False,
            "ns_per_vehicle_sim_s on paper_dense"),
        "radio.unicast_self_ms": (
            p.profile("radio_unicast", "exclusive_ns") * ms, ALL, False,
            "ns_per_vehicle_sim_s on paper_dense"),
        "geocast.notification_offers": (
            notify, ALL, False,
            "query_tx_per_query and ns_per_vehicle_sim_s on paper_dense"),
        "geocast.query_request_offers": (
            p.ledger("query_request"), ALL, False,
            "query_tx_per_query and ns_per_vehicle_sim_s on paper_dense"),
        "geocast.server_claim_offers": (
            p.ledger("server_claim"), ALL, False,
            "query_tx_per_query and ns_per_vehicle_sim_s on paper_dense"),
        "geocast.offers_per_notification": (
            ratio(notify, p.metric("notifications_sent")), ALL, False,
            "query_tx_per_query on paper_dense"),
        "gpsr.hops": (hist_total(p, "gpsr.route_hops", "sum"), ALL, False,
                      "query_delay_p50_ms on hotspot_service"),
        "gpsr.failures": (p.metric("gpsr_failures"), ALL, True,
                          "query_delay_p50_ms on hotspot_service"),
        "gpsr.route_hops_p50": (
            statistics.median(w["registry"]["histograms"]
                              .get("gpsr.route_hops", {}).get("p50", 0)
                              for w in p.worlds),
            ALL, False, "query_delay_p50_ms on hotspot_service"),
        "wired.messages": (p.metric("wired_messages"), ALL, False,
                           "goodput_qps on hotspot_service and "
                           "ns_per_vehicle_sim_s on city_maintenance"),
        "wired.hops_mean": (
            ratio(hist_total(p, "wired.message_hops", "sum"),
                  hist_total(p, "wired.message_hops", "count")),
            ALL, False, "goodput_qps on hotspot_service"),
        "wired.send_ms": (p.profile("wired_send", "inclusive_ns") * ms, ALL,
                          False, "goodput_qps on hotspot_service and "
                          "ns_per_vehicle_sim_s on city_maintenance"),
        "core.update_packets": (
            p.metric("update_packets_originated"), ALL, False,
            "update_packets_per_vehicle_s on city_maintenance"),
        "core.aggregation_packets": (
            p.metric("aggregation_packets"), ALL, False,
            "update_packets_per_vehicle_s on city_maintenance"),
        "core.table_bytes": (max(w["table_bytes"] for w in p.worlds), ALL,
                             False, "peak_rss_mb on city_maintenance"),
        "core.table_records": (max(w["table_records"] for w in p.worlds),
                               ALL, False, "peak_rss_mb on city_maintenance"),
        "core.server_lookup_hit_ratio": (
            ratio(hits, hits + p.metric("server_lookup_misses")), ALL, True,
            "query_success_rate and query_delay_p99_ms on hotspot_service"),
        "core.rsu_lookup_hit_ratio": (
            ratio(rsu_hits, rsu_hits + p.metric("rsu_lookup_misses")), ALL,
            False,
            "query_success_rate and query_delay_p99_ms on hotspot_service"),
        "core.query_retries": (
            p.metric("query_retries"), ALL, True,
            "query_success_rate and query_delay_p99_ms on hotspot_service"),
        "core.rsu_handle_self_ms": (
            p.profile("rsu_handle", "exclusive_ns") * ms, ALL, False,
            "query_success_rate and query_delay_p99_ms on hotspot_service"),
        "service.cache_hit_ratio": (
            ratio(cache_hits, cache_hits + p.metric("cache_misses")),
            HOTSPOT, False, "goodput_qps and query_delay_p99_ms on "
            "hotspot_service"),
        "service.queries_per_flush": (
            ratio(p.metric("batched_queries"), flushes), HOTSPOT, False,
            "goodput_qps and query_delay_p99_ms on hotspot_service"),
        "service.shed": (
            p.metric("queries_shed") + p.metric("retries_shed"), HOTSPOT,
            True, "goodput_qps and query_delay_p99_ms on hotspot_service"),
        "service.peak_outstanding": (
            max(w["metrics"]["peak_outstanding"] for w in p.worlds),
            HOTSPOT, False,
            "goodput_qps and query_delay_p99_ms on hotspot_service"),
        "service.batch_flush_ms": (
            p.profile("batch_flush", "inclusive_ns") * ms, HOTSPOT, False,
            "goodput_qps and query_delay_p99_ms on hotspot_service"),
        "trace.overhead": (statistics.median(overhead), ALL, True,
                           "nothing; it is the profiler's own cost"),
    }


# --- reporting ---------------------------------------------------------------

def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def print_exports(p):
    """The exact work counts behind the metrics: per-kind ledger, engine
    counters and metrics-registry histograms, summed over the pooled
    worlds."""
    print(f"-- exact counts over {len(p.worlds)} worlds --")
    print(f"{'ledger kind':<18}{'offered':>12}{'delivered':>12}"
          f"{'dropped':>12}{'shed':>8}")
    kinds = sorted({k for w in p.worlds for k in w["ledger"]})
    for kind in kinds:
        print(f"{kind:<18}" + "".join(
            f"{p.ledger(kind, c):>{width}}"
            for c, width in (("offered", 12), ("delivered", 12),
                             ("dropped", 12), ("shed", 8))))
    for key in ("events_dispatched", "events_scheduled"):
        print(f"engine.{key} {p.total(lambda w: w['engine'][key])}")
    print("engine.peak_queue_depth "
          f"{max(w['engine']['peak_queue_depth'] for w in p.worlds)}")
    names = sorted({h for w in p.worlds for h in w["registry"]["histograms"]})
    for name in names:
        count = hist_total(p, name, "count")
        total = hist_total(p, name, "sum")
        p50 = statistics.median(w["registry"]["histograms"].get(name, {})
                                .get("p50", 0) for w in p.worlds)
        print(f"histogram {name}: count {count} sum {total} "
              f"mean {ratio(total, count):.3f} median-of-worlds p50 {p50:g}")
    for w in p.worlds:
        print(f"world seed {w['seed']}: digest {w['digest']}")


def measure(binary, workload, seed, seconds, trace, small=False,
            worlds=None):
    """Runs one benchmark run; returns (result, failures, pool), the pool
    None when a world failed."""
    count = worlds or WORKLOADS[workload]["worlds"]
    seeds = [seed * SEED_STRIDE + i for i in range(count)]
    if trace:
        seeds = seeds[:min(TRACED_WORLDS, count)]
    runner = Runner(binary, workload, small)
    run_schedule(runner, seeds, trace, seconds)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": {}}
    if runner.failures:
        return result, runner.failures, None
    return result, [], Pool(runner, seeds, trace)


def fill_metrics(result, pool, trace, units):
    values = layer_metrics(pool) if trace else e2e_metrics(pool)
    for name, unit in units.items():
        if name not in values:
            raise BenchError(f"no formula for metric {name}")
        result["metrics"][name] = {"value": values[name][0], "unit": unit}
    return values


def report(workload, seed, trace, result, values, pool, units):
    info = WORKLOADS[workload]
    print(f"== HLSRG benchmark: {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'} ==")
    print(f"load model: {info['load']}; host: single-threaded batch run, "
          "one world per process")
    print(f"worlds: {len(pool.worlds)}, world runs: {result['attempted']}")
    for name, unit in units.items():
        value, *rest = values[name]
        if trace:
            applies, _, moves = rest
            tag = "" if workload in applies else "  [does not apply]"
            print(f"{name:<38}{value:>16.6g} {unit:<6} moves {moves}{tag}")
        else:
            print(f"{name:<30}{value:>16.6g} {unit:<6} ({rest[0]})")
    if not trace and workload in ("paper_dense", "hotspot_service"):
        p90, beyond = delay_p90(pool)
        print(f"{'query_delay_p90_ms':<30}{p90:>16.6g} ms     "
              f"({beyond} beyond p90; reported, not gated)")
    print_exports(pool)


def self_check(binary):
    """Reduced-size pass of every workload: every named metric is printed
    with its unit, is finite, and applies to its workload."""
    e2e_units, layer_units = load_benchmark()
    problems = []
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            result, failures, pool = measure(binary, workload, 1, 0, trace,
                                             small=True, worlds=2)
            problems += [f"{workload}: {f}" for f in failures]
            if pool is None:
                continue
            values = fill_metrics(result, pool, trace, units)
            for name, unit in units.items():
                got = result["metrics"][name]
                value = got["value"]
                where = f"{workload} trace={trace} {name}"
                if got["unit"] != unit or not math.isfinite(value):
                    problems.append(f"{where}: bad unit or value {got}")
                    continue
                applies, may_be_zero = ((values[name][1], values[name][2])
                                        if trace else (WORKLOADS, False))
                if workload in applies and not may_be_zero and value <= 0:
                    problems.append(f"{where}: {value} where it applies")
    for p in problems:
        print("self-check: " + p)
    print("self-check " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        binary = build()
        if args.self_check:
            return self_check(binary)
        e2e_units, layer_units = load_benchmark()
        units = layer_units if args.trace else e2e_units
        result, failures, pool = measure(binary, args.workload, args.seed,
                                         args.seconds, args.trace)
        for f in failures:
            print("FAILED world: " + f)
        if pool is not None:
            values = fill_metrics(result, pool, args.trace, units)
            report(args.workload, args.seed, args.trace, result, values,
                   pool, units)
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
