import dataclasses
import json
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import noonamp
from noonamp import channel, husimi, negativity
from noonamp.channel import CutoffPolicy
from noonamp.cli import (SweepConfig, build_parser, g2_values, main, rows_to_csv,
                         run_sweep, run_verify)
from noonamp.fock import ModeCutoffs, NoonSpec, TwoModeState


def small_cfg(**kw):
    base = dict(family="noon_symmetric", n_values=(2,), g2_start=1.0, g2_stop=1.2,
                g2_step=0.1, method="block")
    base.update(kw)
    return SweepConfig(**base)


def test_g2_grid_counts():
    assert len(g2_values(small_cfg())) == 3
    cfg = small_cfg(g2_stop=3.0, g2_step=0.05)
    assert len(g2_values(cfg)) == 41  # 123 rows over N in {2,4,6}


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(family="mystery")
    with pytest.raises(ValueError):
        SweepConfig(family="noon_symmetric")  # no N
    with pytest.raises(ValueError):
        small_cfg(g2_start=0.5)
    with pytest.raises(ValueError):
        small_cfg(g2_stop=0.9)
    with pytest.raises(ValueError):
        small_cfg(g2_step=-0.1)
    for field in ("g2_start", "g2_stop", "g2_step"):
        with pytest.raises(ValueError, match="finite"):
            small_cfg(**{field: math.nan})
    with pytest.raises(ValueError, match="finite"):
        small_cfg(g2_stop=math.inf)
    with pytest.raises(ValueError):
        small_cfg(method="quick")
    with pytest.raises(ValueError):
        small_cfg(output_format="yaml")


def test_sweep_rows_and_unit_gain():
    rows = run_sweep(small_cfg())
    assert len(rows) == 3
    assert rows[0]["g_squared"] == 1.0
    assert abs(rows[0]["log_negativity"] - 1.0) <= 1e-9
    assert rows[0]["method"] == "block"
    # non-increasing with gain
    ens = [r["log_negativity"] for r in rows]
    assert ens[0] >= ens[1] >= ens[2]


def test_sweep_determinism_byte_identical():
    cfg = small_cfg(method="both")
    text1 = rows_to_csv(run_sweep(cfg))
    text2 = rows_to_csv(run_sweep(cfg))
    assert text1 == text2
    assert text1.splitlines()[0].startswith("family,n,r,eta,g_squared")


def test_sweep_oracle_column():
    cfg = small_cfg(g2_stop=1.1, oracle_check=True)
    rows = run_sweep(cfg)
    for row in rows:
        assert row["oracle_trace_distance"] is not None
        assert row["oracle_trace_distance"] <= 1e-6


def test_single_point_reproduces_sweep_row():
    rows = run_sweep(small_cfg())
    target = rows[-1]
    single = run_sweep(small_cfg(g2_start=target["g_squared"],
                                 g2_stop=target["g_squared"] + 0.05,
                                 g2_step=0.1))
    assert single[0]["g_squared"] == target["g_squared"]
    assert single[0]["log_negativity"] == target["log_negativity"]
    assert single[0]["neg_sum"] == target["neg_sum"]


def test_gaussian_family_rows():
    cfg = SweepConfig(family="tmsv_gaussian", r=0.5, g2_start=1.0, g2_stop=1.6,
                      g2_step=0.2)
    rows = run_sweep(cfg)
    assert len(rows) == 4
    assert rows[0]["method"] == "covariance"
    assert rows[0]["n"] is None
    assert abs(rows[0]["log_negativity"] - 1.4426950408889634) <= 1e-9


def test_gaussian_rows_far_past_the_threshold(capsys):
    """At G^2 = 1e77, where det V overflows, the amplified squeezed vacuum is
    separable: both rows print E_N 0 without a numeric warning."""
    assert main(["sweep", "--family", "tmsv_gaussian", "--r", "0.5",
                 "--g2", "1e77:2e77:1e77"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.split(",")[5] for line in lines[1:]] == ["0", "0"]


def test_gaussian_rows_at_high_squeezing(capsys):
    """At r = 8 the covariance entries reach cosh 16 ~ 4e6, and the unit-gain
    row still prints E_N = 16/ln 2 to every digit."""
    assert main(["sweep", "--family", "tmsv_gaussian", "--r", "8", "--g2", "1:2:0.5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    values = [line.split(",")[5] for line in lines[1:]]
    assert len(values) == 3 and all(math.isfinite(float(v)) for v in values)
    assert values[0] == "23.0831206542"
    assert float(values[-1]) == 0.0


def test_gaussian_rows_at_r_20(capsys):
    """At r = 20, where ab - c^2 = 1 is far below the rounding of ab ~ 1e34,
    the unit-gain row prints E_N = 40/ln 2 instead of failing on log2(0)."""
    assert main(["sweep", "--family", "tmsv_gaussian", "--r", "20", "--g2", "1:1.5:0.5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].split(",")[5] == "57.7078016356"


def test_cli_sweep_csv_and_json(tmp_path):
    out_csv = tmp_path / "rows.csv"
    rc = main(["sweep", "--family", "noon_symmetric", "--n", "2",
               "--g2", "1.0:1.2:0.1", "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 4

    out_json = tmp_path / "rows.json"
    rc = main(["sweep", "--family", "noon_symmetric", "--n", "2",
               "--g2", "1.0:1.2:0.1", "--format", "json", "--out", str(out_json)])
    assert rc == 0
    data = json.loads(out_json.read_text())
    assert len(data) == 3
    assert data[0]["family"] == "noon_symmetric"
    assert abs(data[0]["log_negativity"] - 1.0) <= 1e-9


def test_cli_fixed_cutoff_flag(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--family", "noon_asymmetric", "--n", "2",
               "--g2", "1.0:1.1:0.1", "--cutoff", "20,3", "--out", str(out)])
    assert rc == 0
    line = out.read_text().strip().split("\n")[1].split(",")
    assert line[9] == "20" and line[10] == "3"


@pytest.mark.parametrize("argv", [
    ["--family", "noon_symmetric", "--n", "2", "--g2", "1.0:1.1:0.1", "--oracle-check"],
    ["--family", "noon_asymmetric", "--n", "2", "--g2", "1.0:1.1:0.1", "--oracle-check"],
    ["--family", "photon_added_tmsv", "--r", "0.3", "--g2", "1.0:1.1:0.1"],
], ids=["noon_symmetric", "noon_asymmetric", "photon_added_tmsv"])
def test_cli_sweep_eta_above_zero(argv, capsys):
    """eta > 0 rows: the NOON rows (closed forms) agree with the integrated
    master equation."""
    assert main(["sweep", "--eta", "0.5"] + argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row["eta"] == "0.5"
        assert float(row["trace_deficit"]) <= 1e-9
        if row["oracle_trace_distance"]:
            assert float(row["oracle_trace_distance"]) <= 1e-9
    assert float(rows[1]["log_negativity"]) < float(rows[0]["log_negativity"])


def test_import_loads_no_scipy():
    """``import noonamp`` leaves scipy unloaded: no package module imports
    it."""
    env = {**os.environ, "PYTHONPATH": str(Path(noonamp.__file__).parents[1])}
    code = ("import sys, noonamp; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"


def test_commands_load_no_scipy_sparse(tmp_path):
    """The block and dense sweeps (eta = 0 and eta > 0, both NOON
    families), ``qfunc`` and ``verify`` run without scipy.sparse."""
    env = {**os.environ, "PYTHONPATH": str(Path(noonamp.__file__).parents[1])}
    noon = ["--n", "2", "--g2", "1:1.5:0.5"]
    argvs = [["sweep", "--family", family, *noon, "--eta", eta]
             for family in ("noon_symmetric", "noon_asymmetric") for eta in ("0", "0.5")]
    argvs += [["sweep", "--family", "noon_symmetric", *noon, "--method", "dense"],
              ["qfunc", "--n", "2", "--points", "5", "--out", str(tmp_path / "q.csv")],
              ["verify"]]
    code = ("import contextlib, io, sys\n"
            "from noonamp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            "print(codes, [m for m in sys.modules if m.startswith('scipy.sparse')])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    assert out.strip() == f"{[0] * len(argvs)} []"


def test_commands_run_without_scipy(tmp_path):
    """numpy is the only runtime dependency: with scipy unimportable,
    ``import noonamp`` and every command run, namely block and dense NOON
    sweeps at eta = 0 and 0.5 (both families), ``--method both``,
    ``--oracle-check``, the photon-added and Gaussian families, ``qfunc``,
    ``verify`` and ``thresholds``."""
    env = {**os.environ, "PYTHONPATH": str(Path(noonamp.__file__).parents[1])}
    noon = ["--n", "2", "--g2", "1:1.5:0.5"]
    argvs = [["sweep", "--family", family, *noon, "--eta", eta, "--method", method]
             for family in ("noon_symmetric", "noon_asymmetric") for eta in ("0", "0.5")
             for method in ("block", "dense")]
    argvs += [["sweep", "--family", "noon_symmetric", *noon, "--method", "both"],
              ["sweep", "--family", "noon_symmetric", "--n", "2", "--eta", "0.5",
               "--g2", "1:1.2:0.1", "--oracle-check"],
              ["sweep", "--family", "photon_added_tmsv", "--r", "0.3", "--g2", "1:1.2:0.1"],
              ["sweep", "--family", "tmsv_gaussian", "--r", "0.5", "--g2", "1:1.5:0.5"],
              ["qfunc", "--n", "2", "--points", "5", "--out", str(tmp_path / "q.csv")],
              ["verify"],
              ["thresholds", "--r", "0.5"]]
    code = ("import contextlib, io, sys\n"
            "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
            "from noonamp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            "print(codes)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    assert out.strip() == str([0] * len(argvs))


def test_cli_configuration_errors():
    assert main(["sweep", "--family", "noon_symmetric",
                 "--g2", "1.0:1.2:0.1"]) == 2  # no --n
    assert main(["sweep", "--family", "noon_symmetric", "--n", "2",
                 "--g2", "0.5:1.2:0.1"]) == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--family", "noon_symmetric",
                                   "--g2", "bad"])


@pytest.mark.parametrize("argv", [
    ["thresholds", "--r", "-1"],
    ["thresholds", "--r", "0.5", "--eta", "-1"],
    ["verify", "--cutoff", "0,3"],
    ["verify", "--tail-tol", "2"],
    ["sweep", "--family", "noon_symmetric", "--n", "2", "--tail-tol", "2"],
    ["sweep", "--family", "noon_symmetric", "--n", "2", "--jobs", "2"],
    ["qfunc", "--points", "0"],
    ["qfunc", "--g2", "0.5"],
    ["qfunc", "--eta", "-1"],
    # non-finite numbers, refused where they come in
    ["sweep", "--family", "tmsv_gaussian", "--g2", "1:inf:0.1", "--out", "{tmp}/out.csv"],
    ["sweep", "--family", "noon_symmetric", "--n", "2", "--eta", "inf",
     "--out", "{tmp}/out.csv"],
    ["thresholds", "--r", "nan"],
    ["thresholds", "--r", "0.5", "--eta", "nan"],
    ["qfunc", "--n", "2", "--extent", "nan"],
    ["qfunc", "--n", "2", "--extent", "inf"],
    # overflow: cosh(2r), the number of grid points; a negative extent
    ["sweep", "--family", "tmsv_gaussian", "--r", "1000", "--g2", "1:1.1:0.1"],
    ["sweep", "--family", "tmsv_gaussian", "--g2", "1:1e300:1e-300"],
    # a finite grid too long to build: about 1e18 points
    ["sweep", "--family", "tmsv_gaussian", "--g2", "1:1e9:1e-9"],
    ["qfunc", "--extent", "-1", "--points", "3", "--out", "{tmp}/out.csv"],
    # a Q grid of 1e20 values, refused before any mesh is built
    ["qfunc", "--points", "100000", "--out", "{tmp}/out.csv"],
    # a stage gain g' so large that 1 - 1/g' rounds to 1: no auto cutoff exists
    ["sweep", "--family", "noon_symmetric", "--n", "2", "--eta", "1e20",
     "--g2", "1:1.5:0.5"],
    ["sweep", "--family", "photon_added_tmsv", "--r", "0.3", "--eta", "1e20",
     "--g2", "1:1.5:0.5"],
    ["qfunc", "--n", "2", "--g2", "1e20"],
    # a stage gain g' that overflows, and added covariance noise that does
    ["sweep", "--family", "noon_symmetric", "--n", "2", "--eta", "1.7e308",
     "--g2", "1:3:2", "--cutoff", "10,10"],
    ["sweep", "--family", "tmsv_gaussian", "--r", "0.3", "--eta", "1.7e308",
     "--g2", "1:1.5:0.5"],
    # unwritable --out: a missing directory, or a directory itself
    ["sweep", "--family", "noon_symmetric", "--n", "2", "--g2", "1.0:1.1:0.1",
     "--out", "{tmp}/missing/x.csv"],
    ["sweep", "--family", "noon_symmetric", "--n", "2", "--g2", "1.0:1.1:0.1",
     "--out", "{tmp}"],
    ["qfunc", "--out", "{tmp}/missing/q.csv"],
    # flags the family would not read, and a repeated N
    ["sweep", "--family", "photon_added_tmsv", "--r", "0.3", "--cutoff", "10,10",
     "--tail-tol", "1e-3", "--method", "both", "--oracle-check"],
    ["sweep", "--family", "photon_added_tmsv", "--r", "0.3", "--tail-tol", "1e-3"],
    ["sweep", "--family", "tmsv_gaussian", "--n", "2"],
    ["sweep", "--family", "tmsv_gaussian", "--cutoff", "10,10"],
    ["sweep", "--family", "tmsv_gaussian", "--method", "dense"],
    ["sweep", "--family", "tmsv_gaussian", "--oracle-check"],
    ["sweep", "--family", "noon_symmetric", "--n", "2", "--n", "2"],
    ["sweep", "--family", "noon_symmetric", "--n", "2", "--r", "0.9", "--g2", "1:1.1:0.1"],
    ["sweep", "--family", "noon_asymmetric", "--n", "2", "--r", "0.5"],
], ids=lambda argv: " ".join(argv))
def test_cli_misuse_exits_2(argv, tmp_path, capsys, recwarn):
    out = tmp_path / "out.csv"
    argv = [a.format(tmp=tmp_path) for a in argv]
    extra = ["--out", str(out)] if argv[0] == "qfunc" and "--out" not in argv else []
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not recwarn.list   # a warning would be a second stderr line
    assert "Traceback" not in err
    assert not out.exists()
    if "1e20" in argv:
        assert "gain g' = " in err and "dimension cap" in err
    if "1.7e308" in argv:
        assert ("gain g' = " in err and "not finite" in err if "noon_symmetric" in argv
                else "covariance entries must be finite" in err)


def _assert_invariant_failure(argv, tmp_path, capsys, match):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: ") and match in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_oracle_leak_exits_1(tmp_path, capsys):
    """The integrator's leak monitor aborts at the auto cutoffs of N=4,
    G^2=1.55, and at cutoffs 20x20 well before the final gain: one stderr
    line, exit 1, no output file."""
    argv = ["sweep", "--family", "noon_symmetric", "--n", "4",
            "--g2", "1.55:1.56:0.05", "--oracle-check"]
    _assert_invariant_failure(argv, tmp_path, capsys, "cutoff leakage")
    _assert_invariant_failure(argv + ["--cutoff", "20,20"], tmp_path, capsys,
                              "cutoff leakage at t=0.0946")


def test_cli_method_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    """``--method both`` raises when the routes disagree by more than 1e-9."""
    block = negativity.log_negativity_block

    def shifted(state):
        res = block(state)
        return dataclasses.replace(res, log_negativity=res.log_negativity + 1e-6)

    monkeypatch.setattr(negativity, "log_negativity_block", shifted)
    _assert_invariant_failure(["sweep", "--family", "noon_symmetric", "--n", "2",
                               "--g2", "1.0:1.1:0.1", "--method", "both"],
                              tmp_path, capsys, "disagree")


def test_cli_thresholds(capsys):
    assert main(["thresholds", "--r", "0.5", "--eta", "0.5"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    sym = float(out[0].split()[1])
    asym = float(out[1].split()[1])
    assert abs(sym - 1.26695639475) <= 1e-9
    assert asym == 3.0
    assert main(["thresholds", "--r", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "inf" in out
    assert main(["thresholds", "--r", "-1"]) == 2


def test_cli_qfunc(tmp_path):
    out = tmp_path / "q.csv"
    rc = main(["qfunc", "--n", "2", "--g2", "1.5", "--points", "4",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "re_alpha,im_alpha,re_beta,im_beta,q_value"
    assert len(lines) == 1 + 16 * 16


def test_cli_qfunc_eta(tmp_path):
    """--eta builds the state at that bath parameter; the default is the
    ideal amplifier, byte for byte."""
    argv = ["qfunc", "--n", "2", "--g2", "1.5", "--points", "4"]
    outs = {eta: tmp_path / f"q_{eta}.csv" for eta in ("default", "0", "0.5")}
    assert main(argv + ["--out", str(outs["default"])]) == 0
    for eta in ("0", "0.5"):
        assert main(argv + ["--eta", eta, "--out", str(outs[eta])]) == 0
    q = np.loadtxt(outs["0.5"], delimiter=",", skiprows=1)
    assert q.shape == (16 ** 2, 5)
    assert np.all(np.isfinite(q[:, 4])) and np.all(q[:, 4] >= 0.0)
    assert outs["default"].read_text() == outs["0"].read_text() != outs["0.5"].read_text()

    spec, params = NoonSpec(2), channel.AmplifierParams(1.5)
    state = channel.amplify_noon(spec, params,
                                 channel.select_cutoffs(spec, params, CutoffPolicy()))
    ideal = tmp_path / "ideal.csv"
    husimi.write_qgrid_csv(
        husimi.q_evaluate(state, husimi.default_grid_for_state(state, points=4)), ideal)
    assert outs["default"].read_text() == ideal.read_text()


VERIFY_CHECKS = ("unit_gain_negativity", "vacuum_thermal", "oracle_symmetric",
                 "oracle_asymmetric", "map_vs_closed_form", "method_agreement", "scaling_law_symmetric",
                 "scaling_law_asymmetric", "zero_locus", "gaussian_thresholds",
                 "trace_deficit_budget", "monotone_and_ordering")


def test_verify_passes(capsys):
    assert run_verify() == 0
    lines = capsys.readouterr().out.strip().split("\n")
    summary = json.loads(lines[-1])
    assert [line.split()[1].rstrip(":") for line in lines[:-1]] == list(VERIFY_CHECKS)
    assert sorted(summary["metrics"]) == sorted(VERIFY_CHECKS)
    for line, name in zip(lines[:-1], VERIFY_CHECKS):
        held = summary["metrics"][name]
        assert math.isfinite(held["metric"]) and math.isfinite(held["bound"])
        assert line.endswith(f"[metric {held['metric']:.3e}, bound {held['bound']:.3e}]")


def test_verify_output_independent_of_blas_threads():
    """``verify`` prints the same bytes with one BLAS thread and with two."""
    env = {**os.environ, "PYTHONPATH": str(Path(noonamp.__file__).parents[1])}
    outputs = [subprocess.run([sys.executable, "-m", "noonamp.cli", "verify"],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=300, check=True).stdout
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0].splitlines()[-1])["failed"] == 0


def test_verify_detects_skewed_loss_stage(monkeypatch, capsys):
    """Deliberate fault injection: a closed form whose transmissivity tau
    comes from 1.01 eta fails verify through map_vs_closed_form, its one
    check at eta > 0."""
    stage_logs = channel._stage_logs

    def skewed(params):
        log_g, _, log_loss = stage_logs(params)
        g_amp = 1.0 + (params.g_squared - 1.0) * (1.0 + 1.01 * params.eta)
        return log_g, math.log(params.g_squared / g_amp), log_loss

    monkeypatch.setattr(channel, "_stage_logs", skewed)
    assert run_verify() == 1
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert [name for name, ok in summary["checks"].items() if not ok] == ["map_vs_closed_form"]


@pytest.mark.parametrize("builder,oracle_check", [
    ("amplify_noon_symmetric", "oracle_symmetric"),
    ("amplify_noon_asymmetric", "oracle_asymmetric"),
], ids=["symmetric", "asymmetric"])
def test_verify_detects_offdiagonal_sign_fault(builder, oracle_check, monkeypatch, capsys):
    """Deliberate fault injection: flip the sign of one closed form's
    off-diagonal entries and expect the battery, which reaches the builder
    through channel.amplify_noon at call time, to fail."""
    original = getattr(channel, builder)

    def corrupted(spec, params, cutoffs):
        state = original(spec, params, cutoffs)
        x = state.x.copy()
        off = (state.k_a != 0) | (state.k_b != 0)   # every sector but the diagonal
        x[off] = -x[off]
        return TwoModeState(cutoffs, state.k_a, state.k_b, x)

    monkeypatch.setattr(channel, builder, corrupted)
    assert run_verify() == 1
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["failed"] >= 1
    assert (not summary["checks"][oracle_check]
            or not summary["checks"]["method_agreement"])


def test_verify_under_truncation_fails_loudly(capsys):
    policy = CutoffPolicy(fixed_cutoffs=ModeCutoffs(3, 3))
    assert run_verify(policy) == 1
    out = capsys.readouterr().out
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["checks"]["trace_deficit_budget"] is False
    assert "FAIL trace_deficit_budget" in out
