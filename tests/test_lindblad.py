import numpy as np
import pytest

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, ModeCutoffs,
                     NoonSpec, amplify_noon_symmetric, build_noon,
                     check_scaling_law, evolve, select_cutoffs, square_mesh, trace_distance)
from noonamp import _kernels, lindblad
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

    monkeypatch.setattr(_kernels, "ladder", recording_ladder)
    monkeypatch.setattr(AmplifierParams, "stage_gain", property(no_stage_gain))
    evolve(build_noon(NoonSpec(1), ModeCutoffs(12, 12)), AmplifierParams(1.01, eta=0.5))
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


def test_trace_hermiticity_positivity_checkpoints(monkeypatch):
    """Integrating to G^2 = 1.2 and on from there to 1.5 keeps every state a
    density matrix."""
    monkeypatch.setattr(lindblad, "STEP_SIZE", 1e-3)
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


def test_step_halving_fourth_order(monkeypatch):
    spec = NoonSpec(2)
    params = AmplifierParams(1.5)
    cut = select_cutoffs(spec, params, CutoffPolicy())
    closed = amplify_noon_symmetric(spec, params, cut)
    noon = build_noon(spec, cut)
    err = {}
    for h in (4e-3, 2e-3):
        monkeypatch.setattr(lindblad, "STEP_SIZE", h)
        out = evolve(noon, params)
        err[h] = trace_distance(out, closed)
    ratio = err[4e-3] / err[2e-3]
    assert ratio >= 10.0, f"step halving gave ratio {ratio:.2f}"


def test_q_drift_scaling_consistency():
    # the integrated state obeys the Q-function scaling solution
    spec = NoonSpec(1)
    cut = ModeCutoffs(24, 24)
    g2 = 1.4
    out = evolve(build_noon(spec, cut), AmplifierParams(g2))
    mesh, _ = square_mesh(1.2, 7)
    err = check_scaling_law(build_noon(spec, cut), out, AmplifierParams(g2),
                            QGrid(mesh, mesh.copy()))
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
