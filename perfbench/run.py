#!/usr/bin/env python3
"""noonamp benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload sweep_block --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout.  noonamp is imported from
``./src`` and nowhere else, so a directory without the package sources
exits with code 2 and prints no result.

A run measures set-up (the median over several fresh interpreters that
import noonamp and generate the inputs), warms up on the tiny inputs, then
repeats the workload's pass while one more still fits in --seconds,
and reports medians over passes.  With --trace 1 the first half of the time
runs untraced and the second half traced, and the result holds the
per-layer metrics and the tracing overhead instead of the end-to-end ones.
Outputs must be identical in every pass, traced or not.

Standard output ends with an environment-stamped record line and then the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 if any operation failed.  See perfbench/README.md.
"""

import argparse
from dataclasses import dataclass, field
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"   # spans and scratch files; never committed
WORKLOADS = ("sweep_block", "oracle_noon", "diagnostics")
SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-vCPU machine a second thread made BLAS calls stall
# whenever the host took one vCPU away (oracle passes ran 2x slower).
BLAS_THREADS = 1
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 runs the fixed grids (default 0)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time for the passes (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from traced passes")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the harness self-test")
    p.add_argument("--out", default=None,
                   help="append the stamped record to this JSON-lines file")
    p.add_argument("--force-check-failure", action="store_true",
                   help="fail the first operation of every pass (harness self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass
class Pass:
    wall: float
    cpu: float
    checker: object
    layers: dict = field(default_factory=dict)


def timed_pass(workloads, inputs, ctx, force) -> Pass:
    checker = workloads.Checker(force)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    workloads.run_pass(inputs, ctx, checker)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return Pass(wall, cpu, checker)


def repeat(budget: float, one_pass) -> list[Pass]:
    """At least one pass; another while one more at the fastest pass time so
    far fits the budget.  Judging by the fastest pass keeps a slow spell on a
    shared machine from also cutting the passes the median is taken over."""
    done = []
    start = time.perf_counter()
    while True:
        done.append(one_pass(len(done)))
        if time.perf_counter() - start + min(p.wall for p in done) > budget:
            return done


def measure_setup(args) -> float:
    """Median seconds from a fresh interpreter to noonamp imported and inputs made."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(times)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy
    from noonamp import _kernels
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": _kernels.BACKEND, "git_commit": _git_commit()}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:   # before numpy loads OpenBLAS
        os.environ[var] = str(BLAS_THREADS)

    src = ROOT / "src"
    if not (src / "noonamp" / "__init__.py").is_file():
        print(f"perfbench: no noonamp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import noonamp
    if Path(noonamp.__file__).resolve().parent != (src / "noonamp").resolve():
        print(f"perfbench: noonamp imported from {noonamp.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    if args.setup_probe:
        sys.stdout.flush()
        os._exit(0)   # skip interpreter teardown: it is not part of set-up

    import spans
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        ctx = workloads.PassContext(
            golden=workloads.load_golden(ROOT / "data" / "golden_sweep.csv"),
            photon_added_reference=json.loads(
                (HERE / "photon_added_reference.json").read_text()),
            workdir=str(workdir))
        return measure(args, inputs, ctx, workloads, spans, environment())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, inputs, ctx, workloads, spans, env) -> int:
    setup_s = measure_setup(args)
    warm = workloads.make_inputs(args.workload, args.seed, "tiny")
    workloads.run_pass(warm, ctx, workloads.Checker())

    def untraced(i):
        return timed_pass(workloads, inputs, ctx, args.force_check_failure)

    tracers = []

    def traced(i):
        tracer = spans.Tracer(run_id=f"{args.workload}:seed{args.seed}:pass{i}")
        with tracer.installed():
            p = untraced(i)
        p.layers = spans.layer_metrics(tracer.spans)
        tracers.append(tracer)
        return p

    budget = args.seconds / 2.0 if args.trace else args.seconds
    plain = repeat(budget, untraced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with_spans = repeat(budget, traced) if args.trace else []
    passes = plain + with_spans

    wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in with_spans) if with_spans else None
    if args.trace:
        metrics = spans.median_metrics([p.layers for p in with_spans])
        metrics["channel.deficit_over_budget_rows"] = statistics.median(
            p.checker.deficit_over_budget for p in with_spans)
        metrics["trace.overhead_s"] = traced_wall - wall
        units = {k: _layer_unit(k) for k in metrics}
        dump = [s for t in tracers for s in t.dump()]
        (RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump))
    else:
        metrics = {"wall_s": wall, "cpu_s": statistics.median(p.cpu for p in plain),
                   "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        units = END_TO_END_UNITS

    failures = [f for p in passes for f in p.checker.failures]
    # one more operation: every pass, traced or not, gave the same outputs
    attempted = sum(p.checker.attempted for p in passes) + 1
    digests = {p.checker.digest for p in passes}
    if len(digests) != 1:
        failures.append(f"outputs differ between passes: {len(digests)} distinct digests")
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    first = passes[0].checker
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "env": env, "samples": len(plain),
              "traced_samples": len(with_spans),
              "pass_wall_s": [p.wall for p in plain], "wall_s": wall,
              "traced_wall_s": traced_wall, "attempted": attempted,
              "failed": len(failures), "failed_frac": len(failures) / attempted,
              "golden_rows_identical": [first.golden_identical, first.golden_compared],
              "deficit_over_budget_rows": first.deficit_over_budget,
              "metrics": metrics}
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 1 if failures else 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb") or name.endswith("_mb_max") or name.endswith("_mb_computed"):
        return "MiB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
