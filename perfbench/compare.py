#!/usr/bin/env python3
"""Summarise or compare benchmark run records written by perfbench/run.py.

    python3 perfbench/compare.py RECORD.json [RECORD.json ...]

Records are grouped by (source digest, workload, traced flag); each group
prints, per metric, the median, the quartile spread as a share of the
median, and the sample count. Records whose host/build fingerprints differ
(hardware threads, CPU, compiler, build type and flags, run length, traced
flag) are never merged or compared: the script refuses and exits 2.
"""
import json
import statistics
import sys
from collections import defaultdict


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for p in paths:
        with open(p, encoding="utf-8") as f:
            records.append((p, json.load(f)))
    by_trace = defaultdict(list)
    for p, r in records:
        by_trace[r["fingerprint"]["traced"]].append((p, r))
    for traced, group in by_trace.items():
        base_path, base = group[0]
        for p, r in group[1:]:
            if r["fingerprint"] != base["fingerprint"]:
                print(f"refusing to compare: fingerprint of {p}\n  "
                      f"{json.dumps(r['fingerprint'], sort_keys=True)}\n"
                      f"differs from {base_path}\n  "
                      f"{json.dumps(base['fingerprint'], sort_keys=True)}",
                      file=sys.stderr)
                return 2
    groups = defaultdict(list)
    for _, r in records:
        groups[(r["source_digest"], r["workload"], r["fingerprint"]["traced"])].append(r)
    for (digest, workload, traced), rs in sorted(groups.items()):
        bad = sum(1 for r in rs if not r["correct"])
        print(f"{workload} traced={int(traced)} source={digest} runs={len(rs)} "
              f"incorrect={bad} seeds={sorted(r['seed'] for r in rs)}")
        names = sorted({k for r in rs for k in r["metrics"]})
        for name in names:
            vals = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
            unit = next(r["metrics"][name]["unit"] for r in rs if name in r["metrics"])
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = f"{(q[2] - q[0]) / med:.3f}"
            else:
                spread = "-"
            print(f"  {name:42s} {med:14.6g} {unit:9s} spread={spread} n={len(vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
