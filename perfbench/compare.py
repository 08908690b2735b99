#!/usr/bin/env python3
"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

For each workload and end-to-end metric it prints each side's median and
quartiles over runs, the change's median as a share of the base's, and the
metric's regression bound from BENCHMARK.json.  A metric whose base spread
(quartile distance over median) exceeds its bound is reported as
unresolved.  Records from different kernel backends (numba versus numpy)
measure different programs: the comparison is refused with exit code 2.
Exit code 1 means some metric got worse by more than its bound.
"""

import json
from pathlib import Path
import statistics
import sys

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (load(p) for p in argv)
    backends = {r["env"]["backend"] for r in base + change}
    if len(backends) != 1:
        print(f"compare: refusing to compare kernel backends {sorted(backends)}",
              file=sys.stderr)
        return 2

    worse = False
    for workload in (w["name"] for w in SPEC["workloads"]):
        b_runs = [r for r in base if r["workload"] == workload and r["trace"] == 0]
        c_runs = [r for r in change if r["workload"] == workload and r["trace"] == 0]
        if not b_runs or not c_runs:
            continue
        print(f"{workload}: {len(b_runs)} base runs, {len(c_runs)} change runs")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b_med, b_q1, b_q3 = summary([r["metrics"][name] for r in b_runs])
            c_med, c_q1, c_q3 = summary([r["metrics"][name] for r in c_runs])
            share = (c_med - b_med) / b_med
            if metric["better"] == "higher":
                share = -share
            if (b_q3 - b_q1) / b_med > bound:
                verdict = "unresolved: base spread exceeds the bound"
            elif share > bound:
                verdict, worse = "WORSE beyond bound", True
            else:
                verdict = "within bound"
            print(f"  {name:<12} base {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]  change "
                  f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] {metric['unit']}  "
                  f"worse by {share:+.1%} (bound {bound:.0%}): {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
