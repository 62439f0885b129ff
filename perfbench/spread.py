#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs perfbench/run.py once per seed for each workload, then prints each
metric's median and its quartile spread, (q3 - q1) / median, with the
quartiles of statistics.quantiles(values, n=4). An end-to-end metric is
steady when its spread stays below its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads paper-glr,city-10k]
                                [--seeds 1-10] [--trace 0] [--seconds N]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            try:
                res = json.loads(out.stdout.strip().split("\n")[-1])
            except ValueError:
                print(f"{wl} seed {seed}: FAILED (no result, exit "
                      f"{out.returncode})")
                continue
            if out.returncode or not res["correct"]:
                print(f"{wl} seed {seed}: FAILED (exit {out.returncode})")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + "  ".join(
                f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()),
                flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (
                vs[0], vs[0], vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"  bound {bound}  " + ("ok" if spread < bound / 3 else
                                       "within bound" if spread <= bound else
                                       "TOO WIDE"))
            print(f"{wl:14s} {name:32s} median {med:.6g}  spread "
                  f"{spread:.4f}  n {len(vs)}{verdict}")


if __name__ == "__main__":
    main()
