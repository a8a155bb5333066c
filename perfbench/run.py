#!/usr/bin/env python3
"""End-to-end benchmark of the pworlds library.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the library
from src/), runs one workload in its own process and prints a report
followed, as the last line of standard output, by one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
workload runs twice for half the time each, untraced and traced, and the
metrics are the per-layer ones from the traced process plus
process.trace_overhead (traced over untraced mean request latency, minus 1).

  python3 perfbench/run.py --workload serve_snapshot --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

Run it from the repository root. PW_CONDITION_BACKEND and
PW_CHECK_CERTIFICATES change which code the library runs, so they are
removed from the benchmark's environment.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_snapshot", "view_maintenance", "decide_hard")
PINNED_ENV = ("PW_CONDITION_BACKEND", "PW_CHECK_CERTIFICATES")
BUILD_TYPE = "RelWithDebInfo"
# Every run must end within 180 s; leave room for the report.
DEADLINE_S = 170
# The layer spans must account for each request type's wall time up to this
# share (the rest is the benchmark's own code inside a request span).
UNACCOUNTED_BOUND = 0.05


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    """The build directory: $CARGO_TARGET_DIR when it lies inside the
    checkout, else .bench_build; the benchmark builds in perfbench/ below."""
    base = os.path.join(ROOT, ".bench_build")
    env = os.environ.get("CARGO_TARGET_DIR")
    if env:
        candidate = os.path.realpath(os.path.join(ROOT, env))
        if candidate.startswith(os.path.realpath(ROOT) + os.sep):
            base = candidate
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark. Returns the build dir or
    None when the library sources are missing or the build fails."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src) or not any(
            f.endswith(".cc") for _, _, files in os.walk(src) for f in files):
        log("run.py: no library sources under", src)
        return None
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "pwbench",
                  "pwbench_test"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build step failed:", " ".join(cmd))
            return None
    return out


def clean_env():
    env = dict(os.environ)
    for name in PINNED_ENV:
        env.pop(name, None)
    return env


def compiler_version(out):
    compiler = "c++"
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        proc = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return compiler


def commit():
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def run_binary(out, workload, seed, seconds, trace, inject, deadline,
               span_file=None):
    """Runs pwbench once. Returns (exit code, parsed JSON or None)."""
    cmd = [os.path.join(out, "pwbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", repr(seconds), "--trace",
           "1" if trace else "0"]
    if inject is not None:
        cmd += ["--inject-wrong", str(inject)]
    if span_file:
        cmd += ["--span-file", span_file]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run.py: pwbench timed out")
        return 124, None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.stderr:
        log(proc.stderr.rstrip())
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return proc.returncode or 1, None
    return proc.returncode, result


def run_workload(args):
    out = build()
    if out is None:
        return 2
    # The first run in a checkout also builds; the time limit is for the run.
    deadline = time.monotonic() + DEADLINE_S
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "compiler": compiler_version(out),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cleared_env": [n for n in PINNED_ENV if n in os.environ],
    }
    print("run record:", json.dumps(record))
    if args.trace == 0:
        code, result = run_binary(out, args.workload, args.seed, args.seconds,
                                  False, args.inject_wrong, deadline)
        if result is None:
            return code or 1
        metrics = result["end_to_end"]
        attempted = result["attempted"]
        failed = result["failed"]
        correct = result["correct"] and code == 0
    else:
        half = args.seconds / 2.0
        code0, plain = run_binary(out, args.workload, args.seed, half, False,
                                  args.inject_wrong, deadline)
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        span_file = os.path.join(
            trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))
        code1, traced = run_binary(out, args.workload, args.seed, half, True,
                                   args.inject_wrong, deadline, span_file)
        if plain is None or traced is None:
            return code0 or code1 or 1
        metrics = dict(traced["per_layer"])
        base = plain["mean_latency_ms"]
        metrics["process.trace_overhead"] = {
            "value": traced["mean_latency_ms"] / base - 1 if base > 0 else 0.0,
            "unit": "fraction"}
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        correct = (plain["correct"] and traced["correct"] and code0 == 0
                   and code1 == 0)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    """The benchmark's own checks: unit tests, the injected wrong answer,
    and per-seed repeatability of the counters."""
    out = build()
    if out is None:
        return 2
    ok = True
    proc = subprocess.run([os.path.join(out, "pwbench_test")], cwd=ROOT,
                          env=clean_env())
    ok &= proc.returncode == 0
    deadline = time.monotonic() + 600
    for workload in WORKLOADS:
        code, result = run_binary(out, workload, 3, 1.0, False, 5, deadline)
        injected = (code != 0 and result is not None and result["failed"] >= 1
                    and not result["correct"])
        log("self-test: injected wrong answer on %s %s" %
            (workload, "fails the run" if injected else "WAS NOT CAUGHT"))
        ok &= injected
    for workload in WORKLOADS:
        counts = []
        for _ in range(2):
            code, result = run_binary(out, workload, 11, 1.0, True, None,
                                      deadline)
            if result is None or code != 0:
                counts.append(None)
                continue
            layer = result["per_layer"]
            unaccounted = layer["trace.unaccounted_max"]["value"]
            if unaccounted > UNACCOUNTED_BOUND:
                log("self-test: %s spans leave %.3f of a request type's wall "
                    "time unaccounted (bound %.2f)" %
                    (workload, unaccounted, UNACCOUNTED_BOUND))
                ok = False
            counts.append({k: v["value"] for k, v in layer.items()
                           if k == "decision.yes_ratio"
                           or k.startswith("ilalgebra.rounds")
                           or k.startswith("ilalgebra.derived")
                           or k.startswith("ilalgebra.magic")
                           or (k.startswith("datalog.ivm_")
                               and not k.endswith("_ms"))})
        same = counts[0] is not None and counts[0] == counts[1]
        log("self-test: %s counters %s across two runs of one seed" %
            (workload, "repeat" if same else "DIFFER"))
        ok &= same
    log("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong", type=int, default=None,
                        help="flip the expected answer of this request")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
