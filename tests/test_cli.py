import json
import math

import numpy as np
import pytest

from noonamp import channel
from noonamp.channel import CutoffPolicy
from noonamp.cli import (SweepConfig, build_parser, g2_values, main, rows_to_csv,
                         run_sweep, run_verify)
from noonamp.fock import ModeCutoffs, TwoModeState


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
], ids=lambda argv: " ".join(argv))
def test_cli_misuse_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if argv[0] == "qfunc" else []
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    assert not out.exists()


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


VERIFY_CHECKS = ("unit_gain_negativity", "vacuum_thermal", "oracle_symmetric",
                 "oracle_asymmetric", "method_agreement", "scaling_law_symmetric",
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
        m = state.matrix.copy()
        off = ~np.eye(m.shape[0], dtype=bool)
        m[off] = -m[off]
        return TwoModeState(cutoffs, m)

    monkeypatch.setattr(channel, builder, corrupted)
    assert run_verify() == 1
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["failed"] >= 1
    assert (not summary["checks"][oracle_check]
            or not summary["checks"]["method_agreement"])


def test_verify_under_truncation_fails_loudly(capsys):
    policy = CutoffPolicy(mode="fixed", fixed_cutoffs=ModeCutoffs(3, 3))
    assert run_verify(policy) == 1
    out = capsys.readouterr().out
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["checks"]["trace_deficit_budget"] is False
    assert "FAIL trace_deficit_budget" in out
