#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

For every workload it checks that a tiny untraced run and a tiny traced run
pass their output checks and end with a JSON result that holds every
end-to-end (untraced) or per-layer (traced) metric BENCHMARK.json lists,
each with a unit; that a run with a forced check failure exits non-zero and
reports ``correct: false``; and that a directory holding only the benchmark,
without the package sources, makes the benchmark exit non-zero without a
result.  Takes about a minute; exits 1 on any problem.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{workload} trace={trace}"
            code, out = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"])
            result = result_of(out)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{tag}: exit {code}, result {result}")
                continue
            metrics = result["metrics"]
            extra = set(metrics) - {m["name"] for m in SPEC[section]}
            if extra:
                problems.append(f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)}")
            for metric in SPEC[section]:
                got = metrics.get(metric["name"])
                if got is None or not got.get("unit"):
                    problems.append(f"{tag}: metric {metric['name']} missing or without unit")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{tag}: {metric['name']} unit {got['unit']}, "
                                    f"BENCHMARK.json says {metric['unit']}")
        code, out = run(["--workload", workload, "--seconds", "1", "--size", "tiny",
                         "--force-check-failure"])
        result = result_of(out)
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload} forced failure: exit {code}, result {result}")

    bare = ROOT / ".perfbench_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, out = run(["--workload", "sweep_block", "--seconds", "1"], cwd=bare)
        if code == 0 or result_of(out) is not None:
            problems.append(f"bare directory: exit {code}, stdout {out!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for line in problems:
        print(f"selftest: FAIL {line}")
    print(f"selftest: {'FAILED' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
