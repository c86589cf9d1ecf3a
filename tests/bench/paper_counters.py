#!/usr/bin/env python3
"""Pins the paper benches' reproduction: counters and labels, not timings.

Runs bench_fig5..8 and bench_table1_decision once at a tiny minimum time
and compares, case by case, each benchmark's name, its `cover_cfds`,
`sigma_v`, `truncated` and `always_empty` counters and its label against
a golden file. Timings and iteration counts are ignored.

    paper_counters.py BUILD_DIR GOLDEN          # compare; exit 1 on a diff
    paper_counters.py BUILD_DIR GOLDEN --write  # record GOLDEN afresh
"""

import json
import subprocess
import sys
from pathlib import Path

BENCHES = [
    "bench_fig5_vary_cfds",
    "bench_fig6_vary_projection",
    "bench_fig7_vary_selection",
    "bench_fig8_vary_product",
    "bench_table1_decision",
]
COUNTERS = ["cover_cfds", "sigma_v", "truncated", "always_empty"]


def run(build_dir):
    """{bench: [case, ...]} with each case's name, counters and label."""
    out = {}
    for bench in BENCHES:
        proc = subprocess.run(
            [str(Path(build_dir) / bench), "--benchmark_min_time=0.01",
             "--benchmark_format=json"],
            check=True, stdout=subprocess.PIPE, text=True)
        cases = []
        for b in json.loads(proc.stdout)["benchmarks"]:
            case = {"name": b["name"]}
            case.update({c: b[c] for c in COUNTERS if c in b})
            if b.get("label"):
                case["label"] = b["label"]
            cases.append(case)
        out[bench] = cases
    return out


def main():
    if len(sys.argv) not in (3, 4) or sys.argv[3:] not in ([], ["--write"]):
        sys.exit(__doc__)
    build_dir, golden = sys.argv[1], Path(sys.argv[2])
    got = run(build_dir)
    if sys.argv[3:] == ["--write"]:
        golden.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(len(c) for c in got.values())} cases to {golden}")
        return
    want = json.loads(golden.read_text())
    diffs = 0
    for bench in BENCHES:
        g, w = got.get(bench, []), want.get(bench, [])
        for i in range(max(len(g), len(w))):
            gc = g[i] if i < len(g) else None
            wc = w[i] if i < len(w) else None
            if gc != wc:
                diffs += 1
                print(f"{bench} case {i}:\n  golden: {wc}\n  got:    {gc}")
    cases = sum(len(c) for c in got.values())
    if diffs:
        sys.exit(f"{diffs} of {cases} cases differ from {golden}")
    print(f"{cases} cases match {golden}")


if __name__ == "__main__":
    main()
