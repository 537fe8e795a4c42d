#!/usr/bin/env python3
"""Diff two bench report JSON files and gate on metric regressions.

Usage:
    bench_compare.py OLD.json NEW.json [--threshold FRAC] [--abs-slack N]
                     [--include-engine] [--include-timing] [--verbose]
                     [--groups LIST]

Reads two files produced by the bench binaries (schema "hlsrg-bench/v1",
see docs/PROTOCOL.md) or by scenario_cli --out ("hlsrg-run/v1"), pairs up
every (section, row, protocol) result, and compares the numeric fields.

Which gate owns each field, and the direction in which it is better
("higher", "lower", or "unchanged": any move counts against it), come from
the top-level "directions" block of the NEW report. The report writers fill
it next to the values; the metric and engine fields are the tables in
src/sim/counters.h. A NEW report without that block, or with a numeric field
it gives no direction, is a schema error. The direction groups, and the
report object each covers:

  * "derived"  -- headline figures (overheads, success rate, delay
                  percentiles, ...); always compared.
  * "metrics"  -- raw protocol counters; always compared.
  * "latency"  -- delay summary; always compared.
  * "engine"   -- deterministic counts of the "engine" object (events
                  processed, peak queue depth, ...), only with
                  --include-engine (expected to move whenever the engine
                  changes).
  * "timing"   -- machine-dependent keys of the "engine" object (wall clock,
                  sim seconds/sec, ...), only with --include-timing.
  * "memory"   -- footprint keys of the "engine" object (peak RSS, which is
                  noisy across allocators/kernels, so give it a generous
                  --threshold; table bytes, which are deterministic).
                  Compared whenever "memory" is in --groups, independent of
                  --include-engine/--include-timing.

--groups restricts the comparison to a comma-separated subset of
derived,metrics,latency,engine,memory (default
"derived,metrics,latency,engine"; "engine" admits both the engine and the
timing groups). The CI perf-smoke job uses "--groups engine,metrics
--include-engine --include-timing" with a loose threshold (0.9) to gate
throughput and the run counters (radio broadcasts, peak outstanding
queries): functional counters can drift across compilers/libm (Poisson
workload timing goes through std::log) without being perf regressions, so
the loose threshold flags only collapses; they are gated tightly elsewhere. The memory gate runs as a separate
invocation ("--groups memory") against the scale_map deep rows.

A field regresses when it moves against its direction by more than
threshold (relative) AND more than abs-slack (absolute) -- the absolute
slack keeps tiny counters (3 -> 4 packets) from tripping the relative gate.
Improvements and sub-threshold drifts are reported in --verbose mode only.
Exit status: 0 = no regression, 1 = regression(s), 2 = usage/schema error.

The nested "observability" object (counters / histograms / time series from
trace/metrics.h) is carried through reports untouched and never compared.
"""

import argparse
import json
import sys

SIGN = {"higher": +1, "lower": -1, "unchanged": 0}

# Direction group -> (report object it covers, --groups entry it belongs to).
GROUPS = {
    "derived": ("derived", "derived"),
    "metrics": ("metrics", "metrics"),
    "latency": ("latency", "latency"),
    "engine": ("engine", "engine"),
    "timing": ("engine", "engine"),
    "memory": ("engine", "memory"),
}
SECTIONS = ("derived", "metrics", "latency", "engine")


def fail(msg):
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    schema = doc.get("schema", "")
    if not schema.startswith(("hlsrg-bench/", "hlsrg-run/")):
        fail(f"{path}: unrecognized schema {schema!r}")
    return doc


def load_directions(doc, path):
    """Maps (report object, key) -> (direction group, sign)."""
    block = doc.get("directions")
    if not isinstance(block, dict):
        fail(f"{path}: no 'directions' block (written by current builds)")
    where = {}
    for group, keys in block.items():
        if group not in GROUPS:
            fail(f"{path}: unknown direction group {group!r}")
        for key, direction in keys.items():
            if direction not in SIGN:
                fail(f"{path}: {group}.{key} has direction {direction!r}")
            where[(GROUPS[group][0], key)] = (group, SIGN[direction])
    return where


def iter_results(doc):
    """Yields ((section, row, protocol), result_dict) for both schemas."""
    if doc.get("schema", "").startswith("hlsrg-run/"):
        yield (("run", "run", doc.get("protocol", "?")), doc)
        return
    for section in doc.get("sections", []):
        for row in section.get("rows", []):
            for result in row.get("results", []):
                key = (section.get("title", "?"), row.get("label", "?"),
                       result.get("protocol", "?"))
                yield key, result


def numeric_fields(result, where, wanted, path, strict):
    """Yields (field_path, value, sign) for the fields of the wanted
    direction groups. With `strict`, a numeric field without a direction is
    a schema error; otherwise it is skipped."""
    for section in SECTIONS:
        for name, value in result.get(section, {}).items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            entry = where.get((section, name))
            if entry is None:
                if strict:
                    fail(f"{path}: no direction for {section}.{name}")
                continue
            group, sign = entry
            if group in wanted:
                yield f"{section}.{name}", float(value), sign


def main():
    ap = argparse.ArgumentParser(
        description="diff two bench JSON reports; nonzero exit on regression")
    ap.add_argument("old", help="baseline report")
    ap.add_argument("new", help="candidate report")
    ap.add_argument("--threshold", type=float, default=0.05,
                    help="relative change that counts as a regression "
                         "(default 0.05 = 5%%)")
    ap.add_argument("--abs-slack", type=float, default=2.0,
                    help="ignore absolute moves smaller than this "
                         "(default 2.0; shields tiny counters)")
    ap.add_argument("--include-engine", action="store_true",
                    help="also gate on the engine's deterministic counts")
    ap.add_argument("--include-timing", action="store_true",
                    help="also gate on wall-clock and host rates")
    ap.add_argument("--verbose", action="store_true",
                    help="print every compared field, not just regressions")
    ap.add_argument("--groups", default="derived,metrics,latency,engine",
                    help="comma-separated field groups to compare, from "
                         "derived,metrics,latency,engine,memory "
                         "(default: derived,metrics,latency,engine)")
    args = ap.parse_args()
    groups = {g.strip() for g in args.groups.split(",") if g.strip()}
    known = {entry for _, entry in GROUPS.values()}
    if not groups or not groups <= known:
        fail(f"--groups must name a subset of {sorted(known)}")
    optional = {"engine": args.include_engine, "timing": args.include_timing}
    wanted = {g for g, (_, entry) in GROUPS.items()
              if entry in groups and optional.get(g, True)}

    old_doc, new_doc = load(args.old), load(args.new)
    where = load_directions(new_doc, args.new)
    old_results = dict(iter_results(old_doc))
    new_results = dict(iter_results(new_doc))

    shared = sorted(set(old_results) & set(new_results))
    if not shared:
        fail("the two reports share no (section, row, protocol) results")
    for missing in sorted(set(old_results) - set(new_results)):
        print(f"note: result only in {args.old}: {missing}")
    for extra in sorted(set(new_results) - set(old_results)):
        print(f"note: result only in {args.new}: {extra}")

    regressions = []
    compared = 0
    for key in shared:
        old_fields = {f: v for f, v, _ in numeric_fields(
            old_results[key], where, wanted, args.old, strict=False)}
        new_fields = {f: (v, sign) for f, v, sign in numeric_fields(
            new_results[key], where, wanted, args.new, strict=True)}
        for field in sorted(set(old_fields) & set(new_fields)):
            old_v = old_fields[field]
            new_v, direction = new_fields[field]
            compared += 1
            delta = new_v - old_v
            rel = abs(delta) / abs(old_v) if old_v != 0 else (
                0.0 if delta == 0 else float("inf"))
            # A move is only a regression when it goes against the field's
            # direction (or any move, for "unchanged" fields).
            against = (direction == 0 and delta != 0) or \
                      (direction > 0 and delta < 0) or \
                      (direction < 0 and delta > 0)
            is_regression = (against and rel > args.threshold
                             and abs(delta) > args.abs_slack)
            label = " / ".join(key)
            if is_regression:
                regressions.append(
                    f"{label}: {field} {old_v:g} -> {new_v:g} "
                    f"({delta:+g}, {rel:.1%}, against preferred direction)")
            elif args.verbose and delta != 0:
                print(f"ok: {label}: {field} {old_v:g} -> {new_v:g} "
                      f"({rel:.1%})")

    print(f"compared {compared} fields across {len(shared)} results "
          f"(threshold {args.threshold:.1%}, abs slack {args.abs_slack:g})")
    if regressions:
        print(f"REGRESSIONS ({len(regressions)}):")
        for r in regressions:
            print(f"  {r}")
        sys.exit(1)
    print("no regressions")
    sys.exit(0)


if __name__ == "__main__":
    main()
