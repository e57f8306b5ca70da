#!/usr/bin/env python3
"""Self-check of the repository benchmark at a short scale.

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it runs perfbench/run.py on a small
dataset and checks that:

  * an untraced run is correct and reports every end_to_end metric, with the
    unit BENCHMARK.json declares, as a finite number;
  * a traced run is correct, reports every per_layer metric the same way,
    and its span trace passes bench/validate_trace.py (run.py checks that);
  * a run whose expected answers are deliberately perturbed comes out wrong:
    correct is false and failed > 0, so error_rate registers it.

Takes about two minutes after the harness is built. Exit status 0 on success.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL_DOCS = {"nobench_project": 4096, "nobench_star": 4096,
              "durable_ingest": 4096}


def run(workload, trace, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--docs", str(SMALL_DOCS[workload])]
    if perturb:
        cmd.append("--perturb-oracle")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_metrics(result, wanted, label):
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{label}: missing {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} in {got['unit']}, "
                            f"expected {m['unit']}")
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{label}: {m['name']} = {got['value']!r}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(name, 0)
        if not plain["correct"] or plain["failed"] != 0:
            problems.append(f"{name}: untraced run not correct: {plain}")
        problems += check_metrics(plain, spec["end_to_end"], name)
        traced = run(name, 1)
        if not traced["correct"]:
            problems.append(f"{name}: traced run not correct")
        problems += check_metrics(traced, spec["per_layer"], name + " traced")
        perturbed = run(name, 0, perturb=True)
        if perturbed["correct"] or perturbed["failed"] == 0:
            problems.append(f"{name}: perturbed expected answers went "
                            "unnoticed")
        print(f"{name}: untraced, traced and perturbed runs checked "
              f"(perturbed error_rate "
              f"{perturbed['failed'] / perturbed['attempted']:.3f})")
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
