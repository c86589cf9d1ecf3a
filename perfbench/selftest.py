#!/usr/bin/env python3
"""The benchmark's own test: runs a tiny mode of every workload, traced
and untraced, and checks the result contract against BENCHMARK.json —
every listed metric printed with its unit, a correct result and no
failed op (fail_pct 0) on the seed. It also checks that a directory
holding only BENCHMARK.json and the benchmark fails without a result.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute once built.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(bench, workload, trace, out):
    errors = []
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return [f"exit {out.returncode}: {out.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"not correct: {lines[-1]}")
    if not result.get("attempted", 0) >= 1:
        errors.append("attempted < 1")
    if not any(l.startswith("report fail_pct") and " 0.000 " in l
               for l in lines):
        errors.append("fail_pct is not printed as 0")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        errors.append(f"metric names {sorted(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            errors.append(f"{m['name']}: {got}")
    return [f"{workload} --trace {trace}: {e}" for e in errors]


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark: no sources, so no result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "hot-read",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=bare, env=env, capture_output=True,
                         text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        return ["bare directory: expected a failure without a result, got "
                f"exit {out.returncode} and {out.stdout[-500:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            out = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--tiny"])
            errs = check_result(bench, workload, trace, out)
            print(f"{workload} --trace {trace}: {'FAIL' if errs else 'ok'}",
                  flush=True)
            errors += errs
    errs = check_bare_directory()
    print(f"bare directory: {'FAIL' if errs else 'ok'}")
    errors += errs
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
