"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7, 8a, 8b and 11 are the ``noonamp.checks`` functions that
``noonamp verify`` runs on quick grids, here on their full grids;
criterion 12 is criterion 3's check at eta > 0, which only this suite runs.  Run with
`pytest tests/test_acceptance.py -v -s` to stream the lines; the heavy
criteria (dense method agreement, the photon-added pipeline) take a few
minutes together.
"""

from pathlib import Path

import numpy as np
import pytest

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                     ModeCutoffs, NoonSpec, SqueezingSpec, amplify_noon, amplify_state,
                     checks, photon_add_both, photon_added_tmsv_negativity_sweep,
                     select_cutoffs, threshold_symmetric, tmsv_fock)
from noonamp.cli import SweepConfig, rows_to_csv, run_sweep
from noonamp.negativity import log_negativity_block

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_sweep.csv"
BOTH_MODES = (MODE_SYMMETRIC, MODE_ASYMMETRIC_A)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def report_check(criterion: str, result: checks.CheckResult):
    report(criterion, result.passed, result.detail)


def test_criterion_1_unit_gain_negativity():
    report_check("1 unit-gain E_N", checks.unit_gain_negativity(
        (1, 2, 4, 6), CutoffPolicy(), method="dense"))


def test_criterion_2_vacuum_to_thermal():
    report_check("2 vacuum->thermal", checks.vacuum_thermal(60))


def test_criterion_3_closed_form_vs_oracle():
    report_check("3 closed form vs oracle", checks.closed_form_vs_oracle(
        BOTH_MODES, (0.0,), 2, 1.5, CutoffPolicy()))


def test_criterion_4_method_agreement():
    grid = [round(1.0 + 0.1 * k, 10) for k in range(21)]
    report_check("4 dense/block agreement", checks.method_agreement(
        [(n, g2) for n in (2, 4, 6) for g2 in grid], CutoffPolicy()))


def test_criterion_5_gaussian_thresholds():
    report_check("5 gaussian thresholds", checks.gaussian_thresholds(
        [(r, eta) for r in (0.25, 0.5, 1.0) for eta in (0.0, 0.25, 1.0)],
        (0.25, 0.5, 1.0),
        np.concatenate([np.linspace(1.0, 10.0, 19), np.logspace(5.0, 8.0, 601)])))


def test_criterion_6_scaling_law():
    report_check("6 Q scaling law", checks.scaling_law(
        BOTH_MODES, 2, (1.2, 2.0), CutoffPolicy()))


def test_criterion_7_zero_locus():
    report_check("7 zero-locus preservation", checks.zero_locus(
        [(n, g2) for n in (2, 4) for g2 in (1.5, 2.5)], CutoffPolicy()))


@pytest.fixture(scope="module")
def default_sweep_rows():
    rows = []
    for family in ("noon_symmetric", "noon_asymmetric"):
        cfg = SweepConfig(family=family, n_values=(2, 4, 6), g2_start=1.0,
                          g2_stop=3.0, g2_step=0.05, method="block")
        rows.extend(run_sweep(cfg))
    rows.sort(key=lambda r: (r["family"], r["n"], r["g_squared"]))
    return rows


def test_criterion_8a_monotone(default_sweep_rows):
    curves = [[r["log_negativity"] for r in default_sweep_rows
               if r["family"] == family and r["n"] == n_ph]
              for family in ("noon_symmetric", "noon_asymmetric") for n_ph in (2, 4, 6)]
    assert all(len(curve) == 41 for curve in curves)
    report_check("8a E_N non-increasing", checks.monotone(curves))


def test_criterion_8b_asymmetric_dominates(default_sweep_rows):
    sym = {(r["n"], r["g_squared"]): r["log_negativity"]
           for r in default_sweep_rows if r["family"] == "noon_symmetric"}
    report_check("8b asymmetric >= symmetric", checks.asymmetric_dominates(
        (sym[(r["n"], r["g_squared"])], r["log_negativity"])
        for r in default_sweep_rows if r["family"] == "noon_asymmetric"))


def test_criterion_8c_golden_regression(default_sweep_rows):
    assert GOLDEN_PATH.exists(), "golden sweep data missing"
    lines = GOLDEN_PATH.read_text().strip().split("\n")
    header = lines[0].split(",")
    golden = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(golden) == len(default_sweep_rows) == 2 * 3 * 41
    worst = 0.0
    for want, got in zip(golden, default_sweep_rows):
        assert want["family"] == got["family"]
        assert int(want["n"]) == got["n"]
        for col in ("g_squared", "log_negativity", "neg_sum", "min_eigenvalue",
                    "trace_deficit"):
            worst = max(worst, abs(float(want[col]) - got[col]))
    report("8c golden regression", worst <= 1e-9,
           f"max drift from committed sweep {worst:.3e}")


def test_golden_sweep_bytes(default_sweep_rows):
    """The sweep reproduces the committed file byte for byte, as
    scripts/make_golden.py writes it."""
    assert rows_to_csv(default_sweep_rows) == GOLDEN_PATH.read_text()


def test_criterion_9_photon_added_comparison():
    spec = SqueezingSpec(0.5)
    g_star = threshold_symmetric(spec, 0.0)  # 2/(1 + e^-1)
    window = (0.98 * g_star, 1.02 * g_star)
    grid = [1.40, 1.43, 1.45, 1.46, 1.47, 1.48]
    rows = photon_added_tmsv_negativity_sweep(spec, grid)
    above = [g for g, en, _ in rows if en >= 1e-3]
    below = [g for g, en, _ in rows if en < 1e-3]
    ok_cross = (above and below and window[0] <= max(above)
                and min(below) <= window[1])

    noon = NoonSpec(2)
    params = AmplifierParams(g_star, mode_config=MODE_SYMMETRIC)
    cutoffs = select_cutoffs(noon, params, CutoffPolicy())
    noon_en = log_negativity_block(amplify_noon(noon, params, cutoffs)).log_negativity
    report("9 photon-added comparison",
           bool(ok_cross) and noon_en > 0.05,
           f"E_N<1e-3 first at G2={min(below) if below else None} "
           f"(window [{window[0]:.4f}, {window[1]:.4f}]); "
           f"NOON E_N at G2*={noon_en:.4f}")


def test_criterion_10_commutation_identity():
    spec = SqueezingSpec(0.5)
    cutoffs = ModeCutoffs(36, 36)
    squeezed = tmsv_fock(spec, cutoffs)
    params = AmplifierParams(1.3)

    add_then_amplify = amplify_state(photon_add_both(squeezed), params)
    amplify_then_add = photon_add_both(amplify_state(squeezed, params))
    m1 = add_then_amplify.matrix / add_then_amplify.trace
    m2 = amplify_then_add.matrix / amplify_then_add.trace
    dist = 0.5 * float(np.abs(np.linalg.eigvalsh(m1 - m2)).sum())
    report("10 amplify/photon-add commutation", dist <= 1e-12,
           f"normalized trace distance {dist:.3e}")


def test_criterion_11_map_vs_closed_form():
    report_check("11 exact channel vs closed forms", checks.map_vs_closed_form(
        [(n, g2, eta) for n in (2, 6) for g2 in (1.5, 3.0) for eta in (0.0, 0.5)],
        CutoffPolicy()))


def test_criterion_12_closed_form_vs_oracle_at_eta():
    report_check("12 closed forms vs oracle at eta > 0", checks.closed_form_vs_oracle(
        BOTH_MODES, (0.25, 1.0), 2, 1.5, CutoffPolicy(fixed_cutoffs=ModeCutoffs(40, 40))))
