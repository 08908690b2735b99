import math

import numpy as np
import pytest

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                     ModeCutoffs, NoonSpec, TwoModeState, amplify_noon, build_noon, evolve,
                     q_evaluate, select_cutoffs, square_mesh, trace_distance)
from noonamp import _kernels, channel, checks
from noonamp.husimi import QGrid

from helpers import product_state


def thermal_matrix(nbar, dim):
    q = nbar / (nbar + 1.0)
    return np.diag((1 - q) * q ** np.arange(dim)).astype(complex)


def vacuum_matrix(dim):
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return m


def test_params_validation_and_eta(monkeypatch):
    """evolve reads its rates from eta alone, kappa N1 = 1 + eta and
    kappa N2 = eta, and never the exact map's stage gain."""
    rates = []
    ladder = _kernels.ladder

    def recording_ladder(mode, k, dim, kn1, kn2):
        rates.append((mode, kn1, kn2))
        return ladder(mode, k, dim, kn1, kn2)

    def no_stage_gain(self):
        raise AssertionError("evolve read stage_gain")

    params = AmplifierParams(1.01, eta=0.5)   # construction checks the stage gain
    monkeypatch.setattr(_kernels, "ladder", recording_ladder)
    monkeypatch.setattr(AmplifierParams, "stage_gain", property(no_stage_gain))
    evolve(build_noon(NoonSpec(1), ModeCutoffs(12, 12)), params)
    assert rates == [("a", 1.5, 0.5), ("b", 1.5, 0.5)]


def test_unit_gain_is_identity():
    state = build_noon(NoonSpec(2), ModeCutoffs(5, 5))
    out = evolve(state, AmplifierParams(1.0))
    assert out is state


def test_target_below_one_rejected():
    state = build_noon(NoonSpec(1), ModeCutoffs(4, 4))
    with pytest.raises(ValueError):
        evolve(state, AmplifierParams(0.5))


def test_vacuum_becomes_geometric_thermal():
    state = product_state(vacuum_matrix(60), np.array([[1.0 + 0j]]))
    out = evolve(state, AmplifierParams(2.0, mode_config=MODE_ASYMMETRIC_A))
    pops = out.populations()[:, 0]
    levels = np.arange(60)
    assert abs(float((levels * pops).sum()) - 1.0) <= 1e-7
    assert np.abs(pops - 0.5 ** (levels + 1)).max() <= 1e-9


def test_mean_photon_law():
    # <n>(t) = G^2 (<n>_0 + 1) - 1 under pure gain
    state = product_state(thermal_matrix(0.5, 48), np.array([[1.0 + 0j]]))
    g2 = 1.8
    out = evolve(state, AmplifierParams(g2, mode_config=MODE_ASYMMETRIC_A))
    mean = float((np.arange(48) * out.populations()[:, 0]).sum())
    expected = g2 * 1.5 - 1.0
    assert abs(mean - expected) / expected <= 1e-6


def test_trace_hermiticity_positivity_checkpoints():
    """Integrating to G^2 = 1.2 and on from there to 1.5 keeps every state a
    density matrix."""
    spec = NoonSpec(2)
    params = AmplifierParams(1.5)
    cut = select_cutoffs(spec, params, CutoffPolicy())
    states, current, g_prev = [], build_noon(spec, cut), 1.0
    for g2 in (1.2, 1.5):
        current = evolve(current, AmplifierParams(g2 / g_prev))
        states.append(current)
        g_prev = g2
    for st in states:
        assert abs(st.trace - 1.0) <= 1e-9
        assert np.abs(st.matrix - st.matrix.conj().T).max() <= 1e-14
        assert np.linalg.eigvalsh(st.matrix)[0] >= -1e-8


def test_eta_zero_matches_closed_form():
    """At eta = 0 the propagated NOON input is the closed form to rounding:
    trace distance at most 1e-14 at N = 2, G^2 = 1.5, both modes (measured
    9.5e-16 symmetric and 1.1e-15 asymmetric; fixed-step RK4 gave 6.5e-12)."""
    spec = NoonSpec(2)
    for mode in (MODE_SYMMETRIC, MODE_ASYMMETRIC_A):
        params = AmplifierParams(1.5, mode_config=mode)
        cut = select_cutoffs(spec, params, CutoffPolicy())
        out = evolve(build_noon(spec, cut), params)
        assert trace_distance(out, amplify_noon(spec, params, cut)) <= 1e-14, mode


def test_q_drift_scaling_consistency():
    # the integrated state obeys the Q-function scaling solution
    spec = NoonSpec(1)
    cut = ModeCutoffs(24, 24)
    g2 = 1.4
    out = evolve(build_noon(spec, cut), AmplifierParams(g2))
    mesh, _ = square_mesh(1.2, 7)
    g = math.sqrt(g2)
    q_out = q_evaluate(out, QGrid(mesh, mesh)).values
    q_in = q_evaluate(build_noon(spec, cut), QGrid(mesh / g, mesh / g)).values
    err = float(np.max(np.abs(q_out - q_in / g2**2)))
    assert err < 1e-6


def test_leak_monitor_aborts():
    state = build_noon(NoonSpec(2), ModeCutoffs(4, 4))
    with pytest.raises(RuntimeError, match="leakage"):
        evolve(state, AmplifierParams(2.0))


def test_eta_above_zero_supported():
    # loss-side rate acts: vacuum heats toward (G^2-1)(1+eta), not G^2-1
    state = product_state(vacuum_matrix(50), np.array([[1.0 + 0j]]))
    g2 = 1.6
    params = AmplifierParams(g2, eta=0.5, mode_config=MODE_ASYMMETRIC_A)
    out = evolve(state, params)
    mean = float((np.arange(50) * out.populations()[:, 0]).sum())
    expected = (g2 - 1.0) * (1.0 + params.eta)
    assert abs(mean - expected) / expected <= 1e-6


def test_oracle_checks_detect_injected_faults(monkeypatch):
    """The oracle sees faults in what it checks: a stage gain built from
    1.01 eta fails criterion 12 (measured 3.5e-3 against 1e-9), and a
    closed-form coupling sector scaled by 1.001 or by 1 + 1e-6 fails
    criterion 3 (measured 4.5e-4 and 4.5e-7 against 1e-9).  Both grids pass
    unpatched."""
    both = (MODE_SYMMETRIC, MODE_ASYMMETRIC_A)

    def criterion_12():
        return checks.closed_form_vs_oracle(both, (0.25, 1.0), 2, 1.5,
                                            CutoffPolicy(fixed_cutoffs=ModeCutoffs(40, 40)))

    def criterion_3():
        return checks.closed_form_vs_oracle(both, (0.0,), 2, 1.5, CutoffPolicy())

    assert criterion_12().passed and criterion_3().passed

    def skewed_stage_gain(self):
        return 1.0 + (self.g_squared - 1.0) * (1.0 + 1.01 * self.eta)

    monkeypatch.setattr(AmplifierParams, "stage_gain", property(skewed_stage_gain))
    assert not criterion_12().passed

    closed_forms = {name: getattr(channel, name)
                    for name in ("amplify_noon_symmetric", "amplify_noon_asymmetric")}
    for scale in (1.001, 1.0 + 1e-6):
        for name, closed_form in closed_forms.items():
            def scaled(spec, params, cutoffs, closed_form=closed_form, scale=scale):
                state = closed_form(spec, params, cutoffs)
                x = state.x.copy()
                x[1] *= scale   # the coupling sector (N, -N)
                return TwoModeState(cutoffs, state.k_a, state.k_b, x)

            monkeypatch.setattr(channel, name, scaled)
        assert not criterion_3().passed, scale
