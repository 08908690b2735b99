"""Command-line front end: gain sweeps, Q-function dumps, the invariant
battery, and the closed-form Gaussian thresholds.

Subcommands
    sweep       negativity versus gain for a state family, CSV or JSON out
    qfunc       Husimi Q of an amplified NOON state on a grid, CSV out
    verify      the noonamp.checks battery on quick grids; exit 1 on any failure
    thresholds  entanglement-breaking gains of the squeezed vacuum

Exit codes: 0 success; 1 invariant failure, including a RuntimeError such
as the integrator's leak monitor aborting or ``--method both`` disagreeing;
2 configuration error, including an ``--out`` path that cannot be written.
Either failure prints one line to stderr and writes no ``--out`` file.
Floats are printed with 12 significant digits and rows are sorted, so a
fixed configuration reproduces its output byte for byte.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import channel, checks, config, gaussian, husimi, negativity
from .fock import ModeCutoffs, NoonSpec

FAMILIES = ("noon_symmetric", "noon_asymmetric", "tmsv_gaussian", "photon_added_tmsv")
_FAMILY_MODES = {"noon_symmetric": channel.MODE_SYMMETRIC,
                 "noon_asymmetric": channel.MODE_ASYMMETRIC_A}

# the most gains one sweep may ask for; the grid is a list built in memory
MAX_G2_POINTS = 10**6
# the most Q values (points^4) one qfunc dump may ask for; they are held in memory
MAX_Q_VALUES = 10**7

CSV_COLUMNS = ("family", "n", "r", "eta", "g_squared", "log_negativity", "neg_sum",
               "min_eigenvalue", "method", "cutoff_a", "cutoff_b", "trace_deficit",
               "oracle_trace_distance")


@dataclass(frozen=True)
class SweepConfig:
    family: str
    n_values: tuple[int, ...] = ()
    r: float | None = None   # the squeezed families read 0.5 when unset
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
        if self.family in _FAMILY_MODES:
            if not self.n_values:
                raise ValueError("NOON families need at least one N")
            if len(set(self.n_values)) != len(self.n_values):
                raise ValueError(f"N is repeated in {self.n_values}")
            if self.r is not None:
                raise ValueError(f"the {self.family} family does not read r (--r)")
        else:
            if self.r is None:
                object.__setattr__(self, "r", 0.5)
            unread = [name for name, is_set in (
                ("n_values (--n)", self.n_values),
                ("cutoff_policy (--cutoff, --tail-tol)",
                 self.cutoff_policy != channel.CutoffPolicy()),
                ("method (--method)", self.method != "block"),
                ("oracle_check (--oracle-check)", self.oracle_check)) if is_set]
            if unread:
                raise ValueError(f"the {self.family} family does not read {', '.join(unread)}")
        if not all(map(math.isfinite, (self.g2_start, self.g2_stop, self.g2_step))):
            raise ValueError("g2 start, stop and step must be finite")
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
    count = (cfg.g2_stop - cfg.g2_start) / cfg.g2_step
    if not math.isfinite(count):
        raise ValueError("the g2 grid has no finite number of points")
    if count + 1 > MAX_G2_POINTS:
        raise ValueError(f"the g2 grid has about {count + 1:.3g} points, more than "
                         f"{MAX_G2_POINTS}; raise the step")
    n = int(round(count))
    vals = [cfg.g2_start + k * cfg.g2_step for k in range(n + 2)]
    return [v for v in vals if v <= cfg.g2_stop + 1e-9 * cfg.g2_step]


def _row(cfg: SweepConfig, g2: float, **values) -> dict:
    """One sweep row; the columns a family does not fill stay None (blank)."""
    return {**dict.fromkeys(CSV_COLUMNS), "family": cfg.family, "r": cfg.r,
            "eta": cfg.eta, "g_squared": g2, **values}


def _noon_point(cfg: SweepConfig, n: int, g2: float) -> dict:
    spec = NoonSpec(n)
    params = channel.AmplifierParams(g_squared=g2, eta=cfg.eta,
                                     mode_config=_FAMILY_MODES[cfg.family])
    cutoffs = channel.select_cutoffs(spec, params, cfg.cutoff_policy)
    state = channel.amplify_noon(spec, params, cutoffs)
    res = negativity.log_negativity(state, cfg.method)
    return _row(cfg, g2, n=n, log_negativity=res.log_negativity,
                neg_sum=res.neg_sum, min_eigenvalue=res.min_eigenvalue,
                method=cfg.method if cfg.method == "both" else res.method,
                cutoff_a=cutoffs.cutoff_a, cutoff_b=cutoffs.cutoff_b,
                trace_deficit=state.trace_deficit,
                oracle_trace_distance=(checks.oracle_distance(state, spec, params)
                                       if cfg.oracle_check else None))


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """All sweep rows, sorted by (family, n, g_squared); deterministic."""
    grid = g2_values(cfg)
    if cfg.family in _FAMILY_MODES:
        rows = [_noon_point(cfg, n, g2) for n in cfg.n_values for g2 in grid]
    elif cfg.family == "tmsv_gaussian":
        base = gaussian.tmsv_covariance(gaussian.SqueezingSpec(cfg.r))
        rows = [_row(cfg, g2, method="covariance",
                     log_negativity=gaussian.gaussian_log_negativity(
                         gaussian.amplify_covariance(
                             base, channel.AmplifierParams(g2, eta=cfg.eta))))
                for g2 in grid]
    else:  # photon_added_tmsv
        spec = gaussian.SqueezingSpec(cfg.r)
        rows = [_row(cfg, g2, method="dense", log_negativity=en,
                     cutoff_a=st.cutoffs.cutoff_a, cutoff_b=st.cutoffs.cutoff_b,
                     trace_deficit=st.trace_deficit)
                for g2, en, st in gaussian.photon_added_tmsv_negativity_sweep(
                    spec, grid, eta=cfg.eta)]
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


def run_verify(policy: channel.CutoffPolicy | None = None, stream=None) -> int:
    """Run the check battery: one line per check with its metric and bound,
    then a JSON summary."""
    stream = sys.stdout if stream is None else stream
    policy = channel.CutoffPolicy() if policy is None else policy
    results = checks.battery(policy)
    for name, r in results.items():
        held = "" if r.metric is None else f" [metric {r.metric:.3e}, bound {r.bound:.3e}]"
        print(f"{'PASS' if r.passed else 'FAIL'} {name}: {r.detail}{held}", file=stream)
    failed = sum(not r.passed for r in results.values())
    summary = {"passed": len(results) - failed, "failed": failed,
               "checks": {name: r.passed for name, r in results.items()},
               "metrics": {name: {"metric": r.metric, "bound": r.bound}
                           for name, r in results.items()}}
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


def _parse_cutoff(text: str) -> str | tuple[int, int]:
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
    sweep.add_argument("--r", type=float, default=None,
                       help="squeezing of the squeezed families (default 0.5)")
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
    qfunc.add_argument("--eta", type=float, default=0.0)
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
    fixed = None if cutoff == "auto" else ModeCutoffs(*cutoff)
    return channel.CutoffPolicy(tail_tol=tail_tol, fixed_cutoffs=fixed)


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
    if args.points**4 > MAX_Q_VALUES:
        raise ValueError(f"--points {args.points} gives more than {MAX_Q_VALUES} Q values "
                         "(points^4); lower --points")
    spec = NoonSpec(args.n)
    params = channel.AmplifierParams(g_squared=args.g2, eta=args.eta,
                                     mode_config=_FAMILY_MODES[args.family])
    policy = channel.CutoffPolicy(tail_tol=args.tail_tol)
    state = channel.amplify_noon(spec, params, channel.select_cutoffs(spec, params, policy))
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
    except (ValueError, OSError) as exc:
        # input validation throughout the package raises ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a check that failed while computing: leakage past the cutoffs,
        # dense/block disagreement
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
