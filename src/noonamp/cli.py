"""Command-line front end: gain sweeps, Q-function dumps, the invariant
battery, and the closed-form Gaussian thresholds.

Subcommands
    sweep       negativity versus gain for a state family, CSV or JSON out
    qfunc       Husimi Q of an amplified NOON state on a grid, CSV out
    verify      fixed battery of cross-checks; exit 1 on any failure
    thresholds  entanglement-breaking gains of the squeezed vacuum

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
Floats are printed with 12 significant digits and rows are sorted, so a
fixed configuration reproduces its output byte for byte.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import channel, config, gaussian, husimi, lindblad
from .fock import ModeCutoffs, NoonSpec, build_noon, trace_distance
from .negativity import log_negativity_block, log_negativity_dense

FAMILIES = ("noon_symmetric", "noon_asymmetric", "tmsv_gaussian", "photon_added_tmsv")

CSV_COLUMNS = ("family", "n", "r", "eta", "g_squared", "log_negativity", "neg_sum",
               "min_eigenvalue", "method", "cutoff_a", "cutoff_b", "trace_deficit",
               "oracle_trace_distance")


@dataclass(frozen=True)
class SweepConfig:
    family: str
    n_values: tuple[int, ...] = ()
    r: float = 0.5
    eta: float = 0.0
    g2_start: float = 1.0
    g2_stop: float = 3.0
    g2_step: float = 0.05
    cutoff_policy: channel.CutoffPolicy = field(default_factory=channel.CutoffPolicy)
    method: str = "block"
    oracle_check: bool = False
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.family.startswith("noon") and not self.n_values:
            raise ValueError("NOON families need at least one N")
        if self.g2_start < 1.0:
            raise ValueError("g2 start must be >= 1")
        if self.g2_stop <= self.g2_start:
            raise ValueError("g2 stop must exceed start")
        if self.g2_step <= 0:
            raise ValueError("g2 step must be > 0")
        if self.method not in ("dense", "block", "both"):
            raise ValueError("method must be dense, block or both")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output_format must be csv or json")


def g2_values(cfg: SweepConfig) -> list[float]:
    n = int(round((cfg.g2_stop - cfg.g2_start) / cfg.g2_step))
    vals = [cfg.g2_start + k * cfg.g2_step for k in range(n + 2)]
    return [v for v in vals if v <= cfg.g2_stop + 1e-9 * cfg.g2_step]


def _negativity_for(state, method: str):
    if method == "dense":
        return log_negativity_dense(state)
    if method == "block":
        return log_negativity_block(state)
    dense = log_negativity_dense(state)
    block = log_negativity_block(state)
    gap = abs(dense.log_negativity - block.log_negativity)
    if gap > 1e-9:
        raise RuntimeError(f"dense/block negativity disagree by {gap:.3e}")
    return dense


def _noon_point(cfg: SweepConfig, n: int, g2: float) -> dict:
    mode = (channel.MODE_SYMMETRIC if cfg.family == "noon_symmetric"
            else channel.MODE_ASYMMETRIC_A)
    spec = NoonSpec(n)
    params = channel.AmplifierParams(g_squared=g2, eta=cfg.eta, mode_config=mode)
    cutoffs = channel.select_cutoffs(spec, params, cfg.cutoff_policy)
    build = (channel.amplify_noon_symmetric if mode == channel.MODE_SYMMETRIC
             else channel.amplify_noon_asymmetric)
    state = build(spec, params, cutoffs)
    res = _negativity_for(state, cfg.method)
    method = cfg.method if cfg.method == "both" else res.method

    oracle_dist = None
    if cfg.oracle_check:
        modes = ("a", "b") if mode == channel.MODE_SYMMETRIC else ("a",)
        lparams = lindblad.LindbladParams(kappa_n1=1.0, kappa_n2=0.0,
                                          amplified_modes=modes)
        evolved = lindblad.evolve(build_noon(spec, cutoffs), lparams,
                                  lindblad.IntegratorConfig(target_g_squared=g2))
        oracle_dist = trace_distance(state, evolved)

    return {
        "family": cfg.family, "n": n, "r": None, "eta": cfg.eta, "g_squared": g2,
        "log_negativity": res.log_negativity, "neg_sum": res.neg_sum,
        "min_eigenvalue": res.min_eigenvalue, "method": method,
        "cutoff_a": cutoffs.cutoff_a, "cutoff_b": cutoffs.cutoff_b,
        "trace_deficit": state.trace_deficit, "oracle_trace_distance": oracle_dist,
    }


def _gaussian_point(cfg: SweepConfig, g2: float) -> dict:
    spec = gaussian.SqueezingSpec(cfg.r)
    cov = gaussian.amplify_covariance(gaussian.tmsv_covariance(spec), g2, eta=cfg.eta)
    return {
        "family": cfg.family, "n": None, "r": cfg.r, "eta": cfg.eta, "g_squared": g2,
        "log_negativity": gaussian.gaussian_log_negativity(cov), "neg_sum": None,
        "min_eigenvalue": None, "method": "covariance", "cutoff_a": None,
        "cutoff_b": None, "trace_deficit": None, "oracle_trace_distance": None,
    }


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """All sweep rows, sorted by (family, n, g_squared); deterministic."""
    grid = g2_values(cfg)
    rows: list[dict] = []
    if cfg.family in ("noon_symmetric", "noon_asymmetric"):
        rows = [_noon_point(cfg, n, g2) for n in cfg.n_values for g2 in grid]
    elif cfg.family == "tmsv_gaussian":
        rows = [_gaussian_point(cfg, g2) for g2 in grid]
    else:  # photon_added_tmsv: one continuous integration, inherently ordered
        if cfg.eta != 0.0:
            raise ValueError("photon_added_tmsv pipeline supports eta = 0 only")
        spec = gaussian.SqueezingSpec(cfg.r)
        for g2, en in gaussian.photon_added_tmsv_negativity_sweep(spec, grid):
            rows.append({
                "family": cfg.family, "n": None, "r": cfg.r, "eta": cfg.eta,
                "g_squared": g2, "log_negativity": en, "neg_sum": None,
                "min_eigenvalue": None, "method": "dense", "cutoff_a": None,
                "cutoff_b": None, "trace_deficit": None,
                "oracle_trace_distance": None,
            })
    rows.sort(key=lambda r: (r["family"], r["n"] if r["n"] is not None else -1,
                             r["g_squared"]))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict]) -> str:
    clean = []
    for row in rows:
        item = {}
        for c in CSV_COLUMNS:
            v = row[c]
            item[c] = float(f"{v:.12g}") if isinstance(v, float) else v
        clean.append(item)
    return json.dumps(clean, indent=1) + "\n"


def emit(rows: list[dict], cfg: SweepConfig) -> str:
    text = rows_to_csv(rows) if cfg.output_format == "csv" else rows_to_json(rows)
    if cfg.output_path:
        # all-or-nothing: the text is fully built before the file is touched
        with open(cfg.output_path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# verify battery
# ---------------------------------------------------------------------------

def _battery(policy: channel.CutoffPolicy) -> list[tuple[str, bool, str]]:
    """Named cross-checks at a fixed small grid.  Each entry is
    (name, passed, detail); exceptions count as failures."""
    results = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - the battery reports, not raises
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))

    def unit_gain():
        worst = 0.0
        for n in (1, 2):
            for mode, build in ((channel.MODE_SYMMETRIC, channel.amplify_noon_symmetric),
                                (channel.MODE_ASYMMETRIC_A, channel.amplify_noon_asymmetric)):
                params = channel.AmplifierParams(g_squared=1.0, mode_config=mode)
                cutoffs = channel.select_cutoffs(NoonSpec(n), params, policy)
                res = log_negativity_block(build(NoonSpec(n), params, cutoffs))
                worst = max(worst, abs(res.log_negativity - 1.0))
        return worst <= 1e-9, f"max |E_N - 1| = {worst:.3e}"

    def vacuum_thermal():
        dist = channel.amplified_vacuum(2.0, 50)
        mean_err = abs(dist.mean - 1.0)
        p3_err = abs(dist.probs[3] - 0.0625)
        return mean_err <= 1e-10 and p3_err <= 1e-12, \
            f"mean err {mean_err:.3e}, p3 err {p3_err:.3e}"

    def oracle(mode):
        n, g2 = 2, 1.3
        build = (channel.amplify_noon_symmetric if mode == channel.MODE_SYMMETRIC
                 else channel.amplify_noon_asymmetric)
        params = channel.AmplifierParams(g_squared=g2, mode_config=mode)
        cutoffs = channel.select_cutoffs(NoonSpec(n), params, policy)
        closed = build(NoonSpec(n), params, cutoffs)
        modes = ("a", "b") if mode == channel.MODE_SYMMETRIC else ("a",)
        lparams = lindblad.LindbladParams(1.0, 0.0, modes)
        evolved = lindblad.evolve(build_noon(NoonSpec(n), cutoffs), lparams,
                                  lindblad.IntegratorConfig(target_g_squared=g2))
        dist = trace_distance(closed, evolved)
        return dist <= 1e-6, f"trace distance {dist:.3e}"

    def method_agreement():
        worst = 0.0
        for n, g2 in ((2, 1.5), (2, 2.0), (4, 1.5)):
            for mode, build in ((channel.MODE_SYMMETRIC, channel.amplify_noon_symmetric),
                                (channel.MODE_ASYMMETRIC_A, channel.amplify_noon_asymmetric)):
                params = channel.AmplifierParams(g_squared=g2, mode_config=mode)
                cutoffs = channel.select_cutoffs(NoonSpec(n), params, policy)
                state = build(NoonSpec(n), params, cutoffs)
                gap = abs(log_negativity_dense(state).log_negativity
                          - log_negativity_block(state).log_negativity)
                worst = max(worst, gap)
        return worst <= 1e-9, f"max |dense - block| = {worst:.3e}"

    def scaling(mode):
        n, g2 = 2, 1.5
        build = (channel.amplify_noon_symmetric if mode == channel.MODE_SYMMETRIC
                 else channel.amplify_noon_asymmetric)
        params = channel.AmplifierParams(g_squared=g2, mode_config=mode)
        cutoffs = channel.select_cutoffs(NoonSpec(n), params, policy)
        cutoffs = ModeCutoffs(max(cutoffs.cutoff_a, 32), max(cutoffs.cutoff_b, 32))
        state_out = build(NoonSpec(n), params, cutoffs)
        state_in = build_noon(NoonSpec(n), cutoffs)
        mesh, _ = husimi.square_mesh(2.0 / math.sqrt(2.0), 9)
        grid = husimi.QGrid(mesh, mesh.copy())
        err = husimi.check_scaling_law(state_in, state_out, g2, mode, grid)
        return err < 1e-8, f"max grid error {err:.3e}"

    def zero_locus():
        ok = husimi.check_zero_locus(NoonSpec(2), 1.5,
                                     husimi.noon_zero_candidates(2, 1.5))
        return ok, "zeros preserved and controls positive"

    def thresholds():
        worst = 0.0
        for r, eta in ((0.5, 0.0), (0.5, 0.5)):
            spec = gaussian.SqueezingSpec(r)
            worst = max(worst, abs(gaussian.threshold_bisection(spec, eta)
                                   - gaussian.threshold_symmetric(spec, eta)))
        spec = gaussian.SqueezingSpec(0.5)
        worst = max(worst, abs(gaussian.threshold_bisection(spec, 0.5, modes=("a",))
                               - gaussian.threshold_asymmetric(0.5)))
        return worst <= 1e-6, f"max |bisection - closed form| = {worst:.3e}"

    def deficit_budget():
        params = channel.AmplifierParams(g_squared=2.0, mode_config=channel.MODE_SYMMETRIC)
        cutoffs = channel.select_cutoffs(NoonSpec(2), params, policy)
        state = channel.amplify_noon_symmetric(NoonSpec(2), params, cutoffs)
        budget = 100.0 * policy.tail_tol
        return state.trace_deficit < budget, \
            f"trace_deficit {state.trace_deficit:.3e} vs budget {budget:.3e}"

    def monotone_and_ordering():
        grid = [1.0, 1.25, 1.5, 1.75, 2.0]
        sym, asym = [], []
        for g2 in grid:
            for mode, build, out in (
                    (channel.MODE_SYMMETRIC, channel.amplify_noon_symmetric, sym),
                    (channel.MODE_ASYMMETRIC_A, channel.amplify_noon_asymmetric, asym)):
                params = channel.AmplifierParams(g_squared=g2, mode_config=mode)
                cutoffs = channel.select_cutoffs(NoonSpec(2), params, policy)
                out.append(log_negativity_block(
                    build(NoonSpec(2), params, cutoffs)).log_negativity)
        mono = all(b <= a + 1e-9 for a, b in zip(sym, sym[1:])) and \
            all(b <= a + 1e-9 for a, b in zip(asym, asym[1:]))
        order = all(x >= s - 1e-9 for x, s in zip(asym, sym))
        return mono and order, f"sym {['%.4f' % v for v in sym]}, " \
                               f"asym {['%.4f' % v for v in asym]}"

    run("unit_gain_negativity", unit_gain)
    run("vacuum_thermal", vacuum_thermal)
    run("oracle_symmetric", lambda: oracle(channel.MODE_SYMMETRIC))
    run("oracle_asymmetric", lambda: oracle(channel.MODE_ASYMMETRIC_A))
    run("method_agreement", method_agreement)
    run("scaling_law_symmetric", lambda: scaling(channel.MODE_SYMMETRIC))
    run("scaling_law_asymmetric", lambda: scaling(channel.MODE_ASYMMETRIC_A))
    run("zero_locus", zero_locus)
    run("gaussian_thresholds", thresholds)
    run("trace_deficit_budget", deficit_budget)
    run("monotone_and_ordering", monotone_and_ordering)
    return results


def run_verify(policy: channel.CutoffPolicy | None = None, stream=None) -> int:
    """Run the battery, print one line per check plus a JSON summary."""
    stream = sys.stdout if stream is None else stream
    policy = channel.CutoffPolicy() if policy is None else policy
    results = _battery(policy)
    failed = 0
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        print(f"{tag} {name}: {detail}", file=stream)
    summary = {"passed": len(results) - failed, "failed": failed,
               "checks": {name: ok for name, ok, _ in results}}
    print(json.dumps(summary, sort_keys=True), file=stream)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_g2(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--g2 expects start:stop:step")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _parse_cutoff(text: str) -> channel.CutoffPolicy | tuple[int, int]:
    if text == "auto":
        return "auto"
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("--cutoff expects 'auto' or 'A,B'")
    return int(parts[0]), int(parts[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noonamp",
                                     description="NOON-state amplification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="negativity versus gain for a state family")
    sweep.add_argument("--family", choices=FAMILIES, required=True)
    sweep.add_argument("--n", type=int, action="append", default=None,
                       help="NOON photon number (repeatable)")
    sweep.add_argument("--r", type=float, default=0.5)
    sweep.add_argument("--eta", type=float, default=0.0)
    sweep.add_argument("--g2", type=_parse_g2, default=(1.0, 3.0, 0.05),
                       metavar="START:STOP:STEP")
    sweep.add_argument("--cutoff", type=_parse_cutoff, default="auto",
                       metavar="auto|A,B")
    sweep.add_argument("--tail-tol", type=float, default=config.DEFAULT_TAIL_TOL)
    sweep.add_argument("--method", choices=("dense", "block", "both"), default="block")
    sweep.add_argument("--oracle-check", action="store_true")
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    qfunc = sub.add_parser("qfunc", help="dump the Husimi Q of an amplified NOON state")
    qfunc.add_argument("--n", type=int, default=2)
    qfunc.add_argument("--g2", type=float, default=1.5)
    qfunc.add_argument("--family", choices=("noon_symmetric", "noon_asymmetric"),
                       default="noon_symmetric")
    qfunc.add_argument("--points", type=int, default=21)
    qfunc.add_argument("--extent", type=float, default=3.0)
    qfunc.add_argument("--tail-tol", type=float, default=config.DEFAULT_TAIL_TOL)
    qfunc.add_argument("--out", required=True)

    verify = sub.add_parser("verify", help="run the invariant battery")
    verify.add_argument("--cutoff", type=_parse_cutoff, default="auto",
                        metavar="auto|A,B")
    verify.add_argument("--tail-tol", type=float, default=config.DEFAULT_TAIL_TOL)

    thresholds = sub.add_parser("thresholds",
                                help="closed-form entanglement-breaking gains")
    thresholds.add_argument("--r", type=float, required=True)
    thresholds.add_argument("--eta", type=float, default=0.0)
    return parser


def _policy_from(cutoff, tail_tol: float) -> channel.CutoffPolicy:
    if cutoff == "auto":
        return channel.CutoffPolicy(mode="auto", tail_tol=tail_tol)
    return channel.CutoffPolicy(mode="fixed", tail_tol=tail_tol,
                                fixed_cutoffs=ModeCutoffs(cutoff[0], cutoff[1]))


def _sweep(args) -> int:
    cfg = SweepConfig(
        family=args.family,
        n_values=tuple(args.n) if args.n else (),
        r=args.r, eta=args.eta,
        g2_start=args.g2[0], g2_stop=args.g2[1], g2_step=args.g2[2],
        cutoff_policy=_policy_from(args.cutoff, args.tail_tol),
        method=args.method, oracle_check=args.oracle_check,
        output_path=args.out, output_format=args.format,
    )
    text = emit(run_sweep(cfg), cfg)
    if not cfg.output_path:
        sys.stdout.write(text)
    return 0


def _qfunc(args) -> int:
    mode = (channel.MODE_SYMMETRIC if args.family == "noon_symmetric"
            else channel.MODE_ASYMMETRIC_A)
    spec = NoonSpec(args.n)
    params = channel.AmplifierParams(g_squared=args.g2, mode_config=mode)
    policy = channel.CutoffPolicy(mode="auto", tail_tol=args.tail_tol)
    cutoffs = channel.select_cutoffs(spec, params, policy)
    build = (channel.amplify_noon_symmetric if mode == channel.MODE_SYMMETRIC
             else channel.amplify_noon_asymmetric)
    state = build(spec, params, cutoffs)
    grid = husimi.default_grid_for_state(state, extent=args.extent, points=args.points)
    husimi.write_qgrid_csv(husimi.q_evaluate(state, grid), args.out)
    return 0


def _verify(args) -> int:
    return run_verify(_policy_from(args.cutoff, args.tail_tol))


def _thresholds(args) -> int:
    spec = gaussian.SqueezingSpec(args.r)
    sym = gaussian.threshold_symmetric(spec, args.eta)
    asym = gaussian.threshold_asymmetric(args.eta)
    print(f"symmetric_threshold_g2 {sym:.12g}")
    print("asymmetric_threshold_g2 " + ("inf" if math.isinf(asym) else f"{asym:.12g}"))
    return 0


_COMMANDS = {"sweep": _sweep, "qfunc": _qfunc, "verify": _verify,
             "thresholds": _thresholds}


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        # input validation throughout the package raises ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
