#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark package in this directory (CMake, Release, no LTO)
from the repository's sources, runs one workload and forwards its report.
The last line of standard output is the result JSON object.

    python3 perfbench/run.py --workload paper-glr [--seed 7] [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --selftest

The build lands in $CARGO_TARGET_DIR/perfbench when that variable is set,
else in .bench_build/perfbench at the repository root. Build output goes to
standard error so standard output holds only the report.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    bdir = os.path.join(base, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(bdir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def declared_metrics():
    """{mode: {name: unit}} and workload names from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 3)
    metrics = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    return metrics, [w["name"] for w in spec["workloads"]]


def listed(binary):
    """{mode: {name: unit}} and workload names the binary reports."""
    out = subprocess.run([binary, "--list"], capture_output=True, text=True,
                         check=True).stdout
    metrics = {"0": {}, "1": {}}
    workloads = []
    for line in out.splitlines():
        parts = line.split()
        if parts[0] == "w":
            workloads.append(parts[1])
        else:
            metrics[parts[0]][parts[1]] = parts[2]
    return metrics, workloads


def check_result(line, expected):
    """Problems with the final JSON line against the declared metrics."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
        return problems
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got and got != expected:
        problems.append(f"metrics {got} differ from BENCHMARK.json {expected}")
    for name, v in res["metrics"].items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(v.get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    return problems


def selftest(binary):
    rc = subprocess.run([binary, "--selftest"]).returncode
    declared, declared_workloads = declared_metrics()
    printed, workloads = listed(binary)
    problems = []
    if printed != declared:
        problems.append(f"binary metrics {printed} != BENCHMARK.json {declared}")
    if workloads != declared_workloads:
        problems.append(f"binary workloads {workloads} != {declared_workloads}")
    for mode in declared.values():
        problems += [f"bad metric name {n!r}" for n in mode
                     if not NAME_RE.match(n)]
    bad = check_result('{"correct": true, "attempted": 1, "failed": 0, '
                       '"metrics": {"x y": {"value": 1, "unit": "s"}}}',
                       {"x y": "s"})
    if not bad:
        problems.append("result checker accepted a bad metric name")
    for p in problems:
        print(f"selftest FAILED: {p}", file=sys.stderr)
    print(f"selftest (names vs BENCHMARK.json): "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if rc or problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if args.selftest:
        return selftest(binary)

    expected = declared_metrics()[0][args.trace]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], expected) if lines[-1] else [
        "no output"]
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if problems:
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
