#!/usr/bin/env python3
"""Compares two sets of benchmark runs (baseline vs candidate).

Usage:
    python3 perfbench/compare.py BASELINE CANDIDATE

BASELINE and CANDIDATE are result records written by perfbench/run.py (under
.bench_build/results/), or directories of them. Records are grouped by
workload; traced runs (--trace 1) are ignored because their end-to-end
numbers carry tracing overhead.

The tool refuses to compare (exit 2) when records of one workload differ in
their host fingerprint: nproc, CPU model, build type, SINEW_METRICS, Gather
degree, fsync policy, memtable flush threshold or dataset size. The source revision and the
seed are expected to differ and are not part of the host fingerprint.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartile spread, and flags a regression when the candidate's median is
worse than the baseline's by more than the metric's bound. A metric whose
baseline spread already exceeds its bound is reported as unresolved. Exit
status: 0 no regression, 1 regression, 2 not comparable.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu_model", "build_type", "sinew_metrics",
             "gather_degree", "fsync_policy", "memtable_flush_bytes", "docs")


def load(arg):
    paths = [arg]
    if os.path.isdir(arg):
        paths = [os.path.join(arg, n) for n in sorted(os.listdir(arg))
                 if n.endswith(".json")]
    records = []
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            records.append(record)
    return records


def host(record):
    return tuple((k, record["fingerprint"].get(k)) for k in HOST_KEYS)


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, cand = load(sys.argv[1]), load(sys.argv[2])
    if not base or not cand:
        print("compare: need untraced records on both sides")
        return 2
    regressions = 0
    for workload in sorted({r["workload"] for r in base} |
                           {r["workload"] for r in cand}):
        b = [r for r in base if r["workload"] == workload]
        c = [r for r in cand if r["workload"] == workload]
        if not b or not c:
            print(f"{workload}: missing on one side, skipped")
            continue
        hosts = {host(r) for r in b + c}
        if len(hosts) != 1:
            print(f"compare: {workload}: refusing to gate across different "
                  "fingerprints:")
            for h in sorted(hosts, key=str):
                print("  " + json.dumps(dict(h), sort_keys=True))
            return 2
        print(f"{workload}: {len(b)} baseline run(s), {len(c)} candidate run(s)")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            bv = [r["metrics"][name]["value"] for r in b]
            cv = [r["metrics"][name]["value"] for r in c]
            bmed, bspread = spread(bv)
            cmed, cspread = spread(cv)
            if bmed == 0:
                change = 0.0
            elif m["better"] == "lower":
                change = (cmed - bmed) / abs(bmed)
            else:
                change = (bmed - cmed) / abs(bmed)
            if change > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif bspread > bound:
                verdict = "unresolved (baseline spread above bound)"
            else:
                verdict = "ok"
            print(f"  {name:16s} {bmed:12.4f} -> {cmed:12.4f} {m['unit']:6s} "
                  f"worse by {change:+.3f} (bound {bound}, spreads "
                  f"{bspread:.3f}/{cspread:.3f}) {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
