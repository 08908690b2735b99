import math

import numpy as np
import pytest
from scipy import sparse

from noonamp import (AmplifierParams, CutoffPolicy, IntegratorConfig, LindbladParams,
                     MODE_ASYMMETRIC_A, MODE_SYMMETRIC, ModeCutoffs, NoonSpec,
                     amplified_vacuum, amplify_noon_asymmetric, amplify_noon_symmetric,
                     build_noon, checks, evolve, photon_add_both, select_cutoffs, tmsv_fock)
from noonamp.fock import TwoModeState, product_state
from noonamp.gaussian import SqueezingSpec


def creation(dim):
    op = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        op[n, n - 1] = math.sqrt(n)
    return op


def test_amplified_vacuum_unit_gain():
    dist = amplified_vacuum(1.0, 10)
    assert dist.probs[0] == 1.0
    assert np.all(dist.probs[1:] == 0.0)
    assert dist.tail_mass == 0.0


def test_amplified_vacuum_gain_two():
    assert checks.vacuum_thermal(50).passed  # p_n = 2^-(n+1), mean 1
    assert abs(amplified_vacuum(2.0, 50).tail_mass - 0.5**50) <= 1e-15


def test_amplified_vacuum_rejects():
    with pytest.raises(ValueError):
        amplified_vacuum(0.9, 10)
    with pytest.raises(ValueError):
        amplified_vacuum(2.0, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        AmplifierParams(g_squared=0.5)
    with pytest.raises(ValueError):
        AmplifierParams(g_squared=2.0, eta=-0.1)
    with pytest.raises(ValueError):
        AmplifierParams(g_squared=2.0, mode_config="sideways")


def test_cutoff_policy_validation():
    with pytest.raises(ValueError):
        CutoffPolicy(tail_tol=1.5)
    with pytest.raises(ValueError):
        CutoffPolicy(mode="fixed")
    with pytest.raises(ValueError):
        CutoffPolicy(mode="manual")


def test_select_cutoffs_asymmetric_b_mode():
    for g2 in (1.0, 1.5, 3.0):
        cut = select_cutoffs(NoonSpec(2), AmplifierParams(g2, mode_config=MODE_ASYMMETRIC_A),
                             CutoffPolicy())
        assert cut.cutoff_b == 3


def test_select_cutoffs_unit_gain():
    cut = select_cutoffs(NoonSpec(2), AmplifierParams(1.0), CutoffPolicy())
    assert (cut.cutoff_a, cut.cutoff_b) == (3, 3)


def test_select_cutoffs_deficit_budget():
    assert checks.trace_deficit_budget(2, 2.0, CutoffPolicy(tail_tol=1e-10)).passed


def test_select_cutoffs_dimension_guard():
    with pytest.raises(ValueError, match="tail_tol"):
        select_cutoffs(NoonSpec(2), AmplifierParams(50.0), CutoffPolicy(tail_tol=1e-14))


def test_select_cutoffs_fixed():
    fixed = ModeCutoffs(7, 5)
    policy = CutoffPolicy(mode="fixed", fixed_cutoffs=fixed)
    assert select_cutoffs(NoonSpec(2), AmplifierParams(2.0), policy) is fixed


def test_zero_gain_identity():
    spec = NoonSpec(2)
    cut = ModeCutoffs(6, 6)
    ideal = build_noon(spec, cut)
    sym = amplify_noon_symmetric(spec, AmplifierParams(1.0), cut)
    asym = amplify_noon_asymmetric(spec, AmplifierParams(1.0, mode_config=MODE_ASYMMETRIC_A), cut)
    assert np.abs(sym.matrix - ideal.matrix).max() <= 1e-12
    assert np.abs(asym.matrix - ideal.matrix).max() <= 1e-12


def test_eta_requests_rejected():
    spec = NoonSpec(2)
    cut = ModeCutoffs(8, 8)
    with pytest.raises(ValueError, match="eta"):
        amplify_noon_symmetric(spec, AmplifierParams(1.5, eta=0.3), cut)
    with pytest.raises(ValueError, match="eta"):
        amplify_noon_asymmetric(spec, AmplifierParams(1.5, eta=0.3,
                                                      mode_config=MODE_ASYMMETRIC_A), cut)


def _thermal_two_mode(g2, dim):
    q = (g2 - 1.0) / g2
    n = np.arange(dim)
    weights = q ** (n[:, None] + n[None, :]) / g2**2
    t = np.zeros((dim, dim, dim, dim), dtype=complex)
    t[n[:, None], n[None, :], n[:, None], n[None, :]] = weights
    return t.reshape(dim * dim, dim * dim)


@pytest.mark.parametrize("n_ph", [1, 2])
def test_symmetric_matches_ladder_construction(n_ph):
    """Photon-added-thermal identification: the closed form must equal
    (adag^N + bdag^N) rho_G (a^N + b^N) / (2 N! G^2N) built from explicit
    ladder matrices."""
    g2, dim = 1.6, 24
    spec = NoonSpec(n_ph)
    cut = ModeCutoffs(dim, dim)
    state = amplify_noon_symmetric(spec, AmplifierParams(g2), cut)

    adag = np.kron(creation(dim), np.eye(dim))
    bdag = np.kron(np.eye(dim), creation(dim))
    rho_g = _thermal_two_mode(g2, dim)
    lift = np.linalg.matrix_power(adag, n_ph) + np.linalg.matrix_power(bdag, n_ph)
    expected = lift @ rho_g @ lift.conj().T / (2.0 * math.factorial(n_ph) * g2**n_ph)
    assert np.abs(state.matrix - expected).max() <= 1e-10


def test_asymmetric_matches_ladder_construction():
    g2, dim, n_ph = 1.7, 24, 2
    spec = NoonSpec(n_ph)
    cut = ModeCutoffs(dim, n_ph + 1)
    state = amplify_noon_asymmetric(spec, AmplifierParams(g2, mode_config=MODE_ASYMMETRIC_A), cut)

    db = n_ph + 1
    q = (g2 - 1.0) / g2
    rho_a = np.diag(q ** np.arange(dim)).astype(complex) / g2
    vac_b = np.zeros((db, db), dtype=complex)
    vac_b[0, 0] = 1.0
    rho_t = np.kron(rho_a, vac_b)
    adag = np.kron(creation(dim), np.eye(db))
    bdag = np.kron(np.eye(dim), creation(db))
    g_n = g2 ** (n_ph / 2.0)
    lift = np.linalg.matrix_power(adag, n_ph) + g_n * np.linalg.matrix_power(bdag, n_ph)
    expected = lift @ rho_t @ lift.conj().T / (2.0 * math.factorial(n_ph) * g2**n_ph)
    assert np.abs(state.matrix - expected).max() <= 1e-10


def test_symmetric_support_pattern():
    n_ph = 2
    state = amplify_noon_symmetric(NoonSpec(n_ph), AmplifierParams(1.8), ModeCutoffs(14, 14))
    t = state.tensor()
    nz = np.argwhere(np.abs(t) > 0)
    for n, m, p, q in nz:
        delta = (n - p, m - q)
        assert delta in ((0, 0), (n_ph, -n_ph), (-n_ph, n_ph))


def test_asymmetric_b_support():
    n_ph = 3
    state = amplify_noon_asymmetric(NoonSpec(n_ph),
                                    AmplifierParams(2.5, mode_config=MODE_ASYMMETRIC_A),
                                    ModeCutoffs(30, 6))
    t = state.tensor()
    nz = np.argwhere(np.abs(t) > 0)
    assert set(np.unique(nz[:, 1])) <= {0, n_ph}
    assert set(np.unique(nz[:, 3])) <= {0, n_ph}


def test_constructed_states_near_positive():
    for g2 in (1.3, 2.0):
        spec = NoonSpec(2)
        params = AmplifierParams(g2)
        state = amplify_noon_symmetric(spec, params,
                                       select_cutoffs(spec, params, CutoffPolicy()))
        assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-9


def test_photon_add_vacuum_gives_one_one():
    vac = np.zeros((4, 4), dtype=complex)
    vac[0, 0] = 1.0
    out = photon_add_both(product_state(vac, vac))
    i = out.cutoffs.flat_index(1, 1)
    expected = np.zeros_like(out.matrix)
    expected[i, i] = 1.0
    assert np.abs(out.matrix - expected).max() <= 1e-14


def test_photon_add_guards():
    vac = np.zeros((4, 4), dtype=complex)
    vac[0, 0] = 1.0
    with pytest.raises(ValueError, match="at least 2"):
        photon_add_both(product_state(vac[:1, :1], vac))
    # all weight at the top level leaves the truncated space
    top = np.zeros((3, 3), dtype=complex)
    top[2, 2] = 1.0
    with pytest.raises(ValueError, match="no weight"):
        photon_add_both(product_state(top, top))


def test_photon_add_thermal_against_ladder():
    # mean photon number after addition, against explicit operators
    dim = 60
    nbar = 1.0
    q = nbar / (nbar + 1.0)
    therm = np.diag((1 - q) * q ** np.arange(dim)).astype(complex)
    state = product_state(therm, therm)
    added = photon_add_both(state)

    # sparse ladder operators: dense 3600 x 3600 products dominate the test
    one = sparse.csr_array(creation(dim))
    adag = sparse.kron(one, sparse.eye_array(dim), format="csr")
    bdag = sparse.kron(sparse.eye_array(dim), one, format="csr")
    raw = adag @ bdag @ state.csr @ adag.conj().T @ bdag.conj().T
    pops = state.populations()
    levels = np.arange(dim)
    exact_trace = (((levels + 1.0)[:, None]) * ((levels + 1.0)[None, :]) * pops).sum()
    assert abs(added.csr - raw / exact_trace).max() <= 1e-12

    # mean per mode by direct summation over the ladder-built distribution
    mean_a = float((levels[:, None] * added.populations()).sum())
    ladder_pops = (raw / exact_trace).diagonal().real.reshape(dim, dim)
    mean_direct = float((levels[:, None] * ladder_pops).sum())
    assert abs(mean_a - mean_direct) <= 1e-10
    mean_b = float((levels[None, :] * added.populations()).sum())
    assert abs(mean_a - mean_b) <= 1e-10  # symmetric input, symmetric output


def test_photon_add_tmsv_schmidt_form():
    r = 0.5
    cut = ModeCutoffs(20, 20)
    added = photon_add_both(tmsv_fock(SqueezingSpec(r), cut))
    lam = math.tanh(r)
    coeff = np.array([(n + 1) * lam**n for n in range(19)]) / math.cosh(r)
    coeff /= np.linalg.norm(coeff)
    expected = np.zeros_like(added.matrix)
    idx = [(n + 1) * 20 + (n + 1) for n in range(19)]
    expected[np.ix_(idx, idx)] = np.outer(coeff, coeff)
    kept = added.matrix / added.trace
    assert np.abs(kept - expected).max() <= 1e-10


def _photon_add_dense(state):
    """Reference photon addition on the dense (da, db, da, db) tensor."""
    c = state.cutoffs
    n_a = np.arange(c.cutoff_a, dtype=np.float64)
    n_b = np.arange(c.cutoff_b, dtype=np.float64)
    exact_trace = float(((n_a + 1.0)[:, None] * (n_b + 1.0)[None, :]
                         * state.populations()).sum())
    rho = state.tensor()
    out = np.zeros_like(rho)
    sa, sb = np.sqrt(n_a), np.sqrt(n_b)
    factor = (sa[1:, None, None, None] * sb[None, 1:, None, None]
              * sa[None, None, 1:, None] * sb[None, None, None, 1:])
    out[1:, 1:, 1:, 1:] = factor * rho[:-1, :-1, :-1, :-1]
    out /= exact_trace
    return TwoModeState(c, out.reshape(c.dimension, c.dimension))


def _random_complex_state(da, db, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    rho = a @ a.conj().T
    return TwoModeState(ModeCutoffs(da, db), rho / np.trace(rho).real)


@pytest.mark.parametrize("make_state", [
    lambda: tmsv_fock(SqueezingSpec(0.5), ModeCutoffs(16, 16)),
    lambda: evolve(tmsv_fock(SqueezingSpec(0.3), ModeCutoffs(16, 16)),
                   LindbladParams(1.0), IntegratorConfig(target_g_squared=1.05)),
    lambda: TwoModeState(ModeCutoffs(20, 20), _thermal_two_mode(1.5, 20)),
    lambda: amplify_noon_asymmetric(NoonSpec(2), AmplifierParams(
        1.5, mode_config=MODE_ASYMMETRIC_A), ModeCutoffs(24, 3)),
    lambda: _random_complex_state(7, 5, seed=3),
], ids=["squeezed_vacuum", "evolved_squeezed_vacuum", "thermal_product",
        "asymmetric_noon", "random_complex"])
def test_photon_add_matches_dense_tensor(make_state):
    """The coordinate shift reproduces the dense-tensor construction bit for bit."""
    state = make_state()
    got, want = photon_add_both(state), _photon_add_dense(state)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got.csr, attr), getattr(want.csr, attr))
    assert got.trace_deficit == want.trace_deficit


@pytest.mark.parametrize("mode", [MODE_SYMMETRIC, MODE_ASYMMETRIC_A])
def test_oracle_equivalence_grid(mode):
    """Closed forms against direct master-equation integration."""
    for n_ph in (1, 2):
        for g2 in (1.2, 1.5, 2.0):
            assert checks.closed_form_vs_oracle((mode,), n_ph, g2, CutoffPolicy()).passed
