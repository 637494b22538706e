#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric of xmtperf.

    python3 xmtperf/steady.py [--runs 10] [--sets 2] [--pause 120]
                              [--workloads a,b,...] [--seed0 1]

Runs every workload --runs times per set, each run as long as the
run_seconds of BENCHMARK.json, alternating workloads, with seeds
seed0 .. seed0+runs-1, in --sets sets taken --pause seconds apart. For each
set it prints, per workload and metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median;
after the last set, the largest relative difference between set medians.
The bounds in BENCHMARK.json are set from these figures. Run it from the
root of the checkout; it builds through run.py.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ["cycle_long", "functional_long", "sweep_grid", "fuzz_distinct"]


def run_once(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} exited "
                 f"{out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady.py: {workload} seed {seed} failed its checks "
                 f"({result['failed']} failed jobs)")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--pause", type=float, default=120)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    medians = {}  # (workload, metric) -> [median per set]
    for s in range(args.sets):
        if s:
            time.sleep(args.pause)
        results = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                results[w].append(run_once(w, args.seed0 + i))
        print(f"set {s + 1} ({time.strftime('%H:%M:%S')})", flush=True)
        for w in workloads:
            rs = results[w]
            failed = {(r["failed"], r["attempted"]) for r in rs}
            print(f"  {w}: failed/attempted {sorted(failed)}")
            for m in rs[0]["metrics"]:
                vals = [r["metrics"][m]["value"] for r in rs]
                med, q1, q3 = summary(vals)
                spread = (q3 - q1) / med if med else float("nan")
                medians.setdefault((w, m), []).append(med)
                print(f"    {m:18s} median {med:14.6g}  q1 {q1:14.6g}  "
                      f"q3 {q3:14.6g}  spread {spread:7.4f}", flush=True)
    if args.sets > 1:
        print("largest difference between set medians")
        for (w, m), meds in medians.items():
            drift = max(meds) / min(meds) - 1 if min(meds) else float("nan")
            print(f"  {w:16s} {m:18s} {drift:7.4f}")


if __name__ == "__main__":
    main()
