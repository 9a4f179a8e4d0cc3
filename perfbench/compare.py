#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by `perfbench/run.py` (it keeps
them in `.perfbench/results/`). For every workload and metric it prints the
median of each side and their ratio. Results from hosts with different
fingerprints (CPU model, cores, L1d, rustc, target-cpu) are never compared:
the command refuses and exits 1.
"""

import json
import os
import statistics
import sys


def load(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                records.append(json.load(f))
    return records


def medians(records):
    """{(workload, trace, metric): (median, unit)} over correct records."""
    values = {}
    for r in records:
        if not r["correct"]:
            continue
        for metric, m in r["metrics"].items():
            values.setdefault((r["workload"], r["trace"], metric), (m["unit"], []))[1].append(m["value"])
    return {key: (statistics.median(vs), unit) for key, (unit, vs) in values.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {r["host"]["id"] for r in base + new}
    if len(hosts) != 1:
        print(f"refusing to compare results from different hosts: {sorted(hosts)}", file=sys.stderr)
        sys.exit(1)
    old_m, new_m = medians(base), medians(new)
    print(f"{'workload':14s} {'metric':46s} {'base':>12s} {'new':>12s} {'new/base':>9s}")
    for key in sorted(set(old_m) & set(new_m)):
        workload, _, metric = key
        (b, unit), (n, _) = old_m[key], new_m[key]
        ratio = f"{n / b:9.3f}" if b else "        -"
        print(f"{workload:14s} {metric:46s} {b:12.6g} {n:12.6g} {ratio} {unit}")


if __name__ == "__main__":
    main()
