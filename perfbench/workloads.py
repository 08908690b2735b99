"""Inputs, passes and output checks of the three benchmark workloads.

sweep_block  closed-form NOON amplification swept over gain, block method:
             the package's main job, spent in ``channel`` builds and
             ``negativity`` block solves; dense d^2 storage sets its memory.
oracle_noon  the same rows with ``--oracle-check``: RK4 in ``lindblad`` on a
             NOON input, which fills only 3 phase sectors.
diagnostics  ``verify``, a Husimi Q dump, a dense/block sweep, the
             photon-added squeezed-vacuum pipeline (about 2*cutoff-1 phase
             sectors), the Gaussian sweep and ``thresholds``, all through
             ``cli.main``.

Inputs come from the seed alone.  The default seed runs fixed grids.  Any
other seed keeps each grid's top gain, which sets the cutoffs, the memory
peak and most of the time, and draws every other gain uniformly from a cell
half a grid step wide centred on its grid point (cut off at unit gain).
Successive photon numbers take antithetic places in their cells (u, 1 - u,
u, ...): a row's cost rises steeply with gain, and pairing a high draw with
a low one keeps a pass's cost, and so its timing, nearly the same across
seeds.  The library sees only the generated gains.

Library entry points are looked up on their modules at call time, so the
span wrappers in ``spans`` see every call.
"""

from contextlib import redirect_stdout
from dataclasses import dataclass
import hashlib
import io
import json
import math
import os
import random

import numpy as np

from noonamp import cli, config

DEFAULT_SEED = 0

TAIL_BUDGET = 100.0 * config.DEFAULT_TAIL_TOL   # trace_deficit limit per row
ORACLE_TOL = 1e-6                                # closed form vs RK4, trace distance
MATCH_TOL = 1e-9                                 # golden and reference values
_NUMERIC = ("g_squared", "log_negativity", "neg_sum", "min_eigenvalue", "trace_deficit")
_SYM, _ASYM = "noon_symmetric", "noon_asymmetric"

# 5 of the golden sweep's 41 gains (every tenth), built with the same
# arithmetic as cli.g2_values so the floats equal the golden rows'.
_GOLDEN_GAINS = [1.0 + k * 0.05 for k in range(0, 41, 10)]

_FULL = {
    "sweep_block": {"families": {_SYM: (2, 4, 6), _ASYM: (2, 4, 6)},
                    "grid": _GOLDEN_GAINS, "step": 0.5},
    "oracle_noon": {"families": {_SYM: (1, 2), _ASYM: (1, 2, 4)},
                    "grid": [1.1, 1.15, 1.2], "step": 0.05},
    "diagnostics": {"verify": True,
                    "qfunc": {"n": 4, "g2": 2.0, "points": 17},
                    "both": {"n": 4, "start": 1.5, "stop": 1.625},
                    "photon_added": {"r": 0.3, "start": 1.0, "stop": 1.1},
                    "gaussian_r": 0.5, "thresholds": (0.5, 0.25)},
}
_TINY = {
    "sweep_block": {"families": {_SYM: (2,), _ASYM: (2,)}, "grid": [1.0, 1.5, 2.0],
                    "step": 0.5},
    "oracle_noon": {"families": {_SYM: (1,), _ASYM: (1,)}, "grid": [1.05, 1.1],
                    "step": 0.05},
    "diagnostics": {"verify": False,
                    "qfunc": {"n": 2, "g2": 1.5, "points": 5},
                    "both": {"n": 2, "start": 1.2, "stop": 1.4},
                    "photon_added": {"r": 0.3, "start": 1.0, "stop": 1.05},
                    "gaussian_r": 0.5, "thresholds": (0.5, 0.25)},
}


def _in_cell(point: float, step: float, u: float) -> float:
    """The gain at fraction u of the cell around ``point``."""
    lo, hi = max(1.0, point - step / 4.0), point + step / 4.0
    return lo + u * (hi - lo)


def draw_grids(rng, grid: list[float], step: float, n_values: list[int]) -> dict:
    """Gain grid per photon number; the grid itself when ``rng`` is None."""
    if rng is None:
        return {n: list(grid) for n in n_values}
    top = max(grid)
    u = {p: rng.random() for p in grid}
    return {n: [p if p == top else _in_cell(p, step, u[p] if j % 2 == 0 else 1.0 - u[p])
                for p in grid]
            for j, n in enumerate(n_values)}


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Everything a pass needs, generated from ``seed`` alone."""
    spec = (_FULL if size == "full" else _TINY)[workload]
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    inputs = {"workload": workload, "seed": seed, "size": size,
              "default_grid": rng is None}
    if workload in ("sweep_block", "oracle_noon"):
        n_values = sorted({n for ns in spec["families"].values() for n in ns})
        # both families share a photon number's gains, so their rows pair up
        grids = draw_grids(rng, spec["grid"], spec["step"], n_values)
        inputs["points"] = [(family, n, g) for family, ns in spec["families"].items()
                            for n in ns for g in grids[n]]
        inputs["oracle"] = workload == "oracle_noon"
        return inputs

    def drawn(point, step):
        return point if rng is None else _in_cell(point, step, rng.random())

    q, both, pa = spec["qfunc"], spec["both"], spec["photon_added"]
    both_start = drawn(both["start"], (both["stop"] - both["start"]) / 2.0)
    pa_start = drawn(pa["start"], (pa["stop"] - pa["start"]) / 2.0)
    inputs.update(
        verify=spec["verify"],
        qfunc=q,   # its one gain is its top gain, so it stays
        both={"n": both["n"], "g2": _three_point_grid(both_start, both["stop"])},
        photon_added={"r": pa["r"], "g2": _three_point_grid(pa_start, pa["stop"])},
        gaussian_r=spec["gaussian_r"], thresholds=spec["thresholds"])
    return inputs


def _three_point_grid(start: float, stop: float) -> str:
    """--g2 START:STOP:STEP text for the gains start, midpoint, stop."""
    return f"{start!r}:{stop!r}:{(stop - start) / 2.0!r}"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Checker:
    """Operations attempted and failed in one pass, plus an output digest.

    An operation is a sweep row, a verify check, a Q file or a thresholds
    call; it fails if it raised, exited non-zero or failed an output check.
    ``force_failure`` makes the first operation fail, to prove the harness
    notices a failed check.
    """

    def __init__(self, force_failure: bool = False):
        self.attempted = 0
        self.failures: list[str] = []
        self.golden_identical = 0
        self.golden_compared = 0
        self.deficit_over_budget = 0
        self._digest = hashlib.sha256()
        self._force = force_failure

    def op(self, label: str, problems: list[str]):
        self.attempted += 1
        if self._force:
            self._force = False
            problems = problems + ["failure forced by --force-check-failure"]
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def output(self, data: bytes):
        self._digest.update(len(data).to_bytes(8, "little"))
        self._digest.update(data)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    header, *lines = text.splitlines()
    cols = header.split(",")
    return lines, [dict(zip(cols, line.split(","))) for line in lines]


def _f(value: str) -> float:
    return float(value) if value else math.nan


def check_sweep_rows(text: str, checker: Checker, label: str, expect_rows: int,
                     golden: dict | None = None, reference: dict | None = None,
                     oracle: bool = False, method: str | None = None):
    """Per-row checks on sweep CSV text; each row is one operation.

    Every row: finite E_N, E_N non-increasing in gain within its (family, n)
    curve, and asymmetric E_N >= symmetric E_N at the same (n, gain).
    Optionally: the golden sweep within 1e-9 (byte identity is counted, not
    required), reference E_N values within 1e-9, the oracle trace distance
    within 1e-6, and the method label.

    Rows whose trace_deficit exceeds 100 tail_tol are counted, not failed:
    auto cutoffs budget only the geometric tail, so N >= 4 rows exceed it,
    the committed golden sweep included (103 of its 246 rows).
    """
    checker.output(text.encode())
    lines, rows = parse_csv(text)
    problems = [[] for _ in rows]
    if len(rows) != expect_rows:
        checker.op(f"{label} row count", [f"{len(rows)} rows, expected {expect_rows}"])

    curves: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        curves.setdefault((row["family"], row["n"]), []).append(i)
    for idx in curves.values():
        idx.sort(key=lambda i: _f(rows[i]["g_squared"]))
        for a, b in zip(idx, idx[1:]):
            if _f(rows[b]["log_negativity"]) > _f(rows[a]["log_negativity"]) + MATCH_TOL:
                problems[b].append("E_N increased with gain")

    sym = {(r["n"], r["g_squared"]): _f(r["log_negativity"]) for r in rows
           if r["family"] == _SYM}
    for i, row in enumerate(rows):
        en = _f(row["log_negativity"])
        if not math.isfinite(en):
            problems[i].append(f"E_N not finite: {row['log_negativity']!r}")
        key = (row["n"], row["g_squared"])
        if row["family"] == _ASYM and key in sym and en < sym[key] - MATCH_TOL:
            problems[i].append(f"asymmetric E_N {en} below symmetric {sym[key]}")
        deficit = row.get("trace_deficit", "")
        if deficit and not _f(deficit) <= TAIL_BUDGET:
            checker.deficit_over_budget += 1
        if oracle and not _f(row["oracle_trace_distance"]) <= ORACLE_TOL:
            problems[i].append(f"oracle trace distance {row['oracle_trace_distance']!r}")
        if method and row["method"] != method:
            problems[i].append(f"method {row['method']!r}, expected {method!r}")
        if golden is not None:
            problems[i] += _golden_problems(lines[i], row, golden, checker)
        if reference is not None:
            want = reference.get(row["g_squared"])
            if want is None or not abs(en - want) <= MATCH_TOL:
                problems[i].append(f"E_N {en} vs reference {want}")

    for row, probs in zip(rows, problems):
        checker.op(f"{label} {row['family']} n={row['n']} g2={row['g_squared']}", probs)


def _golden_problems(line: str, row: dict, golden: dict, checker: Checker) -> list[str]:
    entry = golden.get((row["family"], row["n"], row["g_squared"]))
    if entry is None:
        return ["gain not in the golden sweep"]
    want_line, want = entry
    checker.golden_compared += 1
    checker.golden_identical += line == want_line
    out = []
    for col in _NUMERIC:
        if not abs(_f(row[col]) - _f(want[col])) <= MATCH_TOL:
            out.append(f"{col} {row[col]} vs golden {want[col]}")
    for col in ("method", "cutoff_a", "cutoff_b"):
        if row[col] != want[col]:
            out.append(f"{col} {row[col]} vs golden {want[col]}")
    return out


def load_golden(path) -> dict:
    """(family, n, g_squared text) -> (CSV line, row) of the golden sweep."""
    with open(path) as fh:
        lines, rows = parse_csv(fh.read())
    return {(r["family"], r["n"], r["g_squared"]): (line, r) for line, r in zip(lines, rows)}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class PassContext:
    """What a pass needs besides its inputs: reference data and a work dir."""

    golden: dict
    photon_added_reference: dict
    workdir: str


def run_pass(inputs: dict, ctx: PassContext, checker: Checker):
    if inputs["workload"] == "diagnostics":
        _diagnostics_pass(inputs, ctx, checker)
    else:
        _sweep_pass(inputs, ctx, checker)


def _point_config(family: str, n: int, g2: float, oracle: bool) -> "cli.SweepConfig":
    # a grid holding exactly g2: the next point, g2 + 1, lies past the stop
    return cli.SweepConfig(family=family, n_values=(n,), g2_start=g2,
                           g2_stop=g2 + 0.5, g2_step=1.0, oracle_check=oracle)


def _sweep_pass(inputs: dict, ctx: PassContext, checker: Checker):
    oracle = inputs["oracle"]
    rows: list[dict] = []
    expected = 0
    for family, n, g2 in inputs["points"]:
        try:
            rows += cli.run_sweep(_point_config(family, n, g2, oracle))
        except Exception as exc:  # noqa: BLE001 - a raising row is a failed operation
            checker.op(f"{family} n={n} g2={g2!r}", [f"{type(exc).__name__}: {exc}"])
            continue
        expected += 1
    if rows:
        # one CSV, ordered as run_sweep orders a whole grid
        rows.sort(key=lambda r: (r["family"], r["n"], r["g_squared"]))
        text = cli.emit(rows, cli.SweepConfig(family=_SYM, n_values=(1,)))
        check_sweep_rows(text, checker, inputs["workload"], expected,
                         golden=ctx.golden if inputs["default_grid"] and not oracle else None,
                         oracle=oracle)


def _cli(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


def _diagnostics_pass(inputs: dict, ctx: PassContext, checker: Checker):
    steps = [_verify, _qfunc, _sweep_both, _photon_added, _gaussian, _thresholds]
    for step in steps:
        try:
            step(inputs, ctx, checker)
        except Exception as exc:  # noqa: BLE001 - a raising command is a failed operation
            checker.op(step.__name__.lstrip("_"), [f"{type(exc).__name__}: {exc}"])


def _verify(inputs, ctx, checker):
    if not inputs["verify"]:
        return
    code, text = _cli(["verify"])
    checker.output(text.encode())
    checks = json.loads(text.splitlines()[-1])["checks"]
    for name, ok in sorted(checks.items()):
        checker.op(f"verify {name}", [] if ok else ["check failed"])
    if code != 0 and all(checks.values()):
        checker.op("verify exit code", [f"exit {code} with every check passing"])


def _qfunc(inputs, ctx, checker):
    q = inputs["qfunc"]
    path = os.path.join(ctx.workdir, "q.csv")
    code = cli.main(["qfunc", "--n", str(q["n"]), "--g2", repr(q["g2"]),
                     "--points", str(q["points"]), "--out", path])
    problems = [] if code == 0 else [f"exit {code}"]
    if code == 0:
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        checker.output(data)
        body = data.split(b"\n")[1:-1]
        expect = q["points"] ** 4
        if len(body) != expect:
            problems.append(f"{len(body)} Q rows, expected {expect}")
        values = np.array([line.rpartition(b",")[2] for line in body], dtype=np.float64)
        if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
            problems.append("Q has non-finite or negative values")
    checker.op("qfunc file", problems)


def _sweep_cli(checker, label, args, expect_rows, **checks):
    code, text = _cli(["sweep"] + args)
    if code != 0:
        checker.op(label, [f"exit {code}"])
        return
    check_sweep_rows(text, checker, label, expect_rows, **checks)


def _sweep_both(inputs, ctx, checker):
    b = inputs["both"]
    _sweep_cli(checker, "method_both",
               ["--family", _SYM, "--n", str(b["n"]), "--g2", b["g2"], "--method", "both"],
               3, method="both")


def _photon_added(inputs, ctx, checker):
    pa = inputs["photon_added"]
    reference = None
    if inputs["default_grid"]:
        reference = ctx.photon_added_reference[inputs["size"]]
    _sweep_cli(checker, "photon_added",
               ["--family", "photon_added_tmsv", "--r", repr(pa["r"]), "--g2", pa["g2"]],
               3, reference=reference)


def _gaussian(inputs, ctx, checker):
    _sweep_cli(checker, "tmsv_gaussian",
               ["--family", "tmsv_gaussian", "--r", repr(inputs["gaussian_r"])], 41)


def _thresholds(inputs, ctx, checker):
    r, eta = inputs["thresholds"]
    code, text = _cli(["thresholds", "--r", repr(r), "--eta", repr(eta)])
    checker.output(text.encode())
    values = dict(line.split() for line in text.splitlines())
    # closed forms of the squeezed vacuum's entanglement-breaking gains
    want_sym = (2.0 + 2.0 * eta) / (1.0 + 2.0 * eta + math.exp(-2.0 * r))
    want_asym = 1.0 + 1.0 / eta
    problems = [] if code == 0 else [f"exit {code}"]
    for key, want in (("symmetric_threshold_g2", want_sym),
                      ("asymmetric_threshold_g2", want_asym)):
        got = float(values.get(key, "nan"))
        if not abs(got - want) <= MATCH_TOL * want:
            problems.append(f"{key} {got} vs closed form {want}")
    checker.op("thresholds", problems)
