#!/usr/bin/env python3
"""Checks that replica 0 of two scenario_cli reports hashed to one digest.

Usage: scenario_cli_digests.py ONE.json MANY.json

Both files are scenario_cli --out documents (schema hlsrg-bench/v1, one
result) of the same scenario and seed. ONE ran one replica, MANY ran more
on several threads. Replica 0 is the same simulation in both, so its state
digest must not depend on the replica count or the thread count. Exits 0 when
the digests match, 1 when they differ.
"""

import json
import sys


def digests(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema"] == "hlsrg-bench/v1", f"{path}: {doc['schema']}"
    (section,) = doc["sections"]
    (row,) = section["rows"]
    (result,) = row["results"]
    return result["digests"]


def main():
    one, many = digests(sys.argv[1]), digests(sys.argv[2])
    if len(one) != 1 or len(many) < 2:
        print(f"expected 1 and >= 2 digests, got {one} and {many}")
        return 1
    if one[0] != many[0]:
        print(f"replica 0 digest differs: {one[0]} vs {many[0]}")
        return 1
    print(f"replica 0 digest {one[0]} in both reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
