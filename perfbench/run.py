#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload nobench_project --seed 1 \\
        --seconds 10 --trace 0

Workloads, metrics and their bounds are declared in BENCHMARK.json; what
each workload runs and how each metric is measured is in perfbench/README.md.

The first run builds the harness (perfbench/CMakeLists.txt, which pulls in the
repository's own CMake project) under .bench_build/perfbench. Every run then:

  * runs the harness binary for the workload, seed and window;
  * with --trace 1, checks the span trace it wrote with bench/validate_trace.py;
  * prints the harness's report, then a host fingerprint line, and as the
    last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
    With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
    --trace 1 its per_layer metrics. "failed" counts operations that failed
    or returned a result the oracle rejected, so failed/attempted is the
    run's error_rate;
  * keeps the full record (all metrics plus the fingerprint) under
    .bench_build/results/ for perfbench/compare.py.

Extra flags for perfbench/selftest.py: --docs N (smaller dataset) and
--perturb-oracle (corrupt expected answers; the run must come out wrong).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "sinew_perfbench")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--docs", type=int, default=0)
    p.add_argument("--perturb-oracle", action="store_true")
    return p.parse_args()


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sinew", "sinew_db.h")) or \
            not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        die(f"no Sinew sources under {ROOT} (src/ and CMakeLists.txt are "
            "needed to build the system under test)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sinew_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 cwd=ROOT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build step failed ({' '.join(cmd)}); see {log_path}")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_rev():
    """git revision when the tree is a checkout, else a digest of the
    sources the harness builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return "git:" + rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def validate_trace(path):
    validator = os.path.join(ROOT, "bench", "validate_trace.py")
    if not os.path.isfile(validator):
        return True, "bench/validate_trace.py not present; trace not validated"
    proc = subprocess.run([sys.executable, validator, path],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode == 0, proc.stdout.strip()


def main():
    args = parse_args()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r}; expected one of {workloads}")
    build()

    work_dir = os.path.join(BUILD_ROOT, "work-" + args.workload)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.docs:
        cmd += ["--docs", str(args.docs)]
    if args.perturb_oracle:
        cmd.append("--perturb-oracle")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"harness did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        die(f"harness printed nothing (exit {proc.returncode})")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        die(f"harness output did not end in JSON (exit {proc.returncode})")

    info = raw.get("info", {})
    fingerprint = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": info.get("build_type"),
        "sinew_metrics": info.get("sinew_metrics"),
        "source_rev": source_rev(),
        "seed": args.seed,
        "gather_degree": info.get("gather_degree"),
        "fsync_policy": info.get("fsync_policy"),
        "memtable_flush_bytes": info.get("memtable_flush_bytes"),
        "docs": info.get("docs"),
    }
    notes = []
    trace_ok = True
    if args.trace:
        trace_ok, msg = validate_trace(info.get("trace_file", ""))
        notes.append("# trace check: " + msg)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            die(f"harness did not report metric {m['name']}")
        if got["unit"] != m["unit"]:
            die(f"metric {m['name']} in {got['unit']}, BENCHMARK.json says "
                f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    attempted = max(1, int(raw["attempted"]))
    failed = int(raw["failed"]) + int(raw["wrong"])
    correct = proc.returncode == 0 and failed == 0 and trace_ok

    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "time": time.time(),
              "fingerprint": fingerprint, "correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": raw["metrics"], "info": info}
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    record_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{stamp}-{os.getpid()}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for line in lines[:-1]:
        print(line)
    for line in notes:
        print(line)
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(f"# error_rate {failed / attempted:.6f} ({failed} of {attempted}); "
          f"record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(1)


if __name__ == "__main__":
    main()
