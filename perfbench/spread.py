#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each end-to-end
metric's median and run-to-run spread (interquartile range over the
median, the statistic BENCHMARK.json's bounds are judged against).

    python3 perfbench/spread.py --workload hot-read --seeds 1-10

Run from the root of a checkout; each run is `perfbench/run.py --trace 0`
for BENCHMARK.json's run_seconds. Exits non-zero when a run fails or a
spread (other than setup_s) exceeds a third of its metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {lines[-1]}")
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        steal = [l.split()[2] for l in lines if l.startswith("report host.steal")]
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items())
              + (f" steal_pct={steal[0]}" if steal else ""), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, 0)
        flag = ""
        if name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
            ok = False
        print(f"{name:16s} median={med:.6g} spread={spread:.4f} "
              f"bound={bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
