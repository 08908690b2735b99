import math

import numpy as np
import pytest
from scipy import sparse

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                     ModeCutoffs, NoonSpec, amplify_noon, amplify_noon_asymmetric,
                     amplify_noon_symmetric, amplify_state, build_noon, checks, evolve,
                     photon_add_both, select_cutoffs, tmsv_fock)
from noonamp.gaussian import SqueezingSpec

from helpers import dense_tensor, from_matrix, product_state, same_state


def creation(dim):
    op = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        op[n, n - 1] = math.sqrt(n)
    return op


def test_params_validation():
    with pytest.raises(ValueError):
        AmplifierParams(g_squared=0.5)
    with pytest.raises(ValueError):
        AmplifierParams(g_squared=2.0, eta=-0.1)
    with pytest.raises(ValueError):
        AmplifierParams(g_squared=2.0, mode_config="sideways")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="g_squared must be finite"):
            AmplifierParams(g_squared=bad)
        with pytest.raises(ValueError, match="eta must be finite"):
            AmplifierParams(g_squared=2.0, eta=bad)
    with pytest.raises(ValueError, match="gain g' = .* is not finite"):
        AmplifierParams(g_squared=3.0, eta=1.7e308)


def test_cutoff_policy_validation():
    with pytest.raises(ValueError):
        CutoffPolicy(tail_tol=1.5)
    with pytest.raises(ValueError):
        CutoffPolicy(tail_tol=0.0)


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
    policy = CutoffPolicy(fixed_cutoffs=fixed)
    assert select_cutoffs(NoonSpec(2), AmplifierParams(2.0), policy) is fixed


def test_zero_gain_identity():
    spec = NoonSpec(2)
    cut = ModeCutoffs(6, 6)
    ideal = build_noon(spec, cut)
    sym = amplify_noon_symmetric(spec, AmplifierParams(1.0), cut)
    asym = amplify_noon_asymmetric(spec, AmplifierParams(1.0, mode_config=MODE_ASYMMETRIC_A), cut)
    assert np.abs(sym.matrix - ideal.matrix).max() <= 1e-12
    assert np.abs(asym.matrix - ideal.matrix).max() <= 1e-12


@pytest.mark.parametrize("n_ph", [1, 2, 4])
def test_closed_form_at_eta_matches_the_map(n_ph):
    """At eta > 0 both public entry points and the dispatch build the state
    the exact channel makes of the NOON input, to 1e-15 per stored entry in
    the same sectors, at cutoffs sized by the amplifier-stage gain
    g' = 1 + (G^2 - 1)(1 + eta)."""
    spec = NoonSpec(n_ph)
    assert AmplifierParams(1.5, eta=0.5).stage_gain == 1.75
    assert AmplifierParams(1.5).stage_gain == 1.5
    for mode, closed_form in ((MODE_SYMMETRIC, amplify_noon_symmetric),
                              (MODE_ASYMMETRIC_A, amplify_noon_asymmetric)):
        for eta in (5e-324, 0.5, 2.0):
            params = AmplifierParams(1.5, eta=eta, mode_config=mode)
            cut = select_cutoffs(spec, params, CutoffPolicy())
            assert cut == select_cutoffs(spec, AmplifierParams(
                params.stage_gain, mode_config=mode), CutoffPolicy())
            state = closed_form(spec, params, cut)
            assert same_state(amplify_noon(spec, params, cut), state)
            want = amplify_state(build_noon(spec, cut), params)
            assert state.k_a.tolist() == want.k_a.tolist() == [0, n_ph]
            assert state.k_b.tolist() == want.k_b.tolist() == [0, -n_ph]
            assert float(np.abs(state.x - want.x).max()) <= 1e-15
            assert abs(state.trace_deficit - want.trace_deficit) <= 1e-14
            assert state.trace_deficit <= 100.0 * CutoffPolicy().tail_tol  # the verify budget


def _kraus_reference(rho, dims, mode_matrices):
    """Sum over Kraus pairs K_a (x) K_b rho (K_a (x) K_b)^dag, with each
    mode's Kraus list given as dense matrices (the identity when absent)."""
    out = rho
    for axis, kraus in enumerate(mode_matrices):
        if kraus is None:
            continue
        eye = np.eye(dims[1 - axis])
        ops = [np.kron(k, eye) if axis == 0 else np.kron(eye, k) for k in kraus]
        out = sum(op @ out @ op.T for op in ops)
    return out


def _single_mode_kraus(dim, g2, eta):
    """Attenuator tau = G^2/g' then amplifier g' on a truncated mode, from
    integer binomials: <n+l|A_l|n> = sqrt(C(n+l, l)) t^l g'^-(n+1)/2 with
    t^2 = (g'-1)/g', and <n-l|B_l|n> = sqrt(C(n, l) tau^(n-l) (1-tau)^l)."""
    g_amp = 1.0 + (g2 - 1.0) * (1.0 + eta)
    tau = g2 / g_amp
    amp = [np.array([[math.sqrt(math.comb(n + l, l)) * ((g_amp - 1.0) / g_amp) ** (l / 2)
                      * g_amp ** (-(n + 1) / 2) if m == n + l else 0.0
                      for n in range(dim)] for m in range(dim)]) for l in range(dim)]
    att = [np.array([[math.sqrt(math.comb(n, l) * tau ** (n - l) * (1.0 - tau) ** l)
                      if m == n - l else 0.0
                      for n in range(dim)] for m in range(dim)]) for l in range(dim)]
    return [a @ b for a in amp for b in att]


@pytest.mark.parametrize("eta", [0.0, 0.7])
@pytest.mark.parametrize("mode", [MODE_SYMMETRIC, MODE_ASYMMETRIC_A])
def test_amplify_state_matches_dense_kraus(mode, eta):
    """The sector map against dense Kraus operators built from integer
    binomials, on a complex state that fills every phase sector."""
    state = _random_complex_state(6, 5, seed=11)
    params = AmplifierParams(1.7, eta=eta, mode_config=mode)
    got = amplify_state(state, params)
    kraus = [_single_mode_kraus(6, 1.7, eta),
             _single_mode_kraus(5, 1.7, eta) if mode == MODE_SYMMETRIC else None]
    want = _kraus_reference(state.matrix, (6, 5), kraus)
    assert np.abs(got.matrix - want).max() <= 1e-14
    assert got.trace < state.trace
    assert abs(got.trace_deficit - (1.0 - np.trace(want).real)) <= 1e-14
    assert amplify_state(state, AmplifierParams(1.0, eta=eta, mode_config=mode)) is state


def _thermal_two_mode(g2, dim):
    q = (g2 - 1.0) / g2
    n = np.arange(dim)
    weights = q ** (n[:, None] + n[None, :]) / g2**2
    t = np.zeros((dim, dim, dim, dim), dtype=complex)
    t[n[:, None], n[None, :], n[:, None], n[None, :]] = weights
    return t.reshape(dim * dim, dim * dim)


@pytest.mark.parametrize("n_ph", [1, 2, 3])
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


@pytest.mark.parametrize("n_ph, db", [(2, 3), (3, 6)])
def test_asymmetric_matches_ladder_construction(n_ph, db):
    """The same identification with gain on mode a only, also with mode b
    kept wider than the N + 1 levels its labels {0, N} need."""
    g2, dim = 1.7, 24
    spec = NoonSpec(n_ph)
    cut = ModeCutoffs(dim, db)
    state = amplify_noon_asymmetric(spec, AmplifierParams(g2, mode_config=MODE_ASYMMETRIC_A), cut)

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
    t = dense_tensor(state)
    nz = np.argwhere(np.abs(t) > 0)
    for n, m, p, q in nz:
        delta = (n - p, m - q)
        assert delta in ((0, 0), (n_ph, -n_ph), (-n_ph, n_ph))


def test_asymmetric_b_support():
    n_ph = 3
    state = amplify_noon_asymmetric(NoonSpec(n_ph),
                                    AmplifierParams(2.5, mode_config=MODE_ASYMMETRIC_A),
                                    ModeCutoffs(30, 6))
    t = dense_tensor(state)
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
    raw = adag @ bdag @ _csr(state) @ adag.conj().T @ bdag.conj().T
    pops = state.populations()
    levels = np.arange(dim)
    exact_trace = (((levels + 1.0)[:, None]) * ((levels + 1.0)[None, :]) * pops).sum()
    assert abs(_csr(added) - raw / exact_trace).max() <= 1e-12

    # mean per mode by direct summation over the ladder-built distribution
    mean_a = float((levels[:, None] * added.populations()).sum())
    ladder_pops = (raw / exact_trace).diagonal().real.reshape(dim, dim)
    mean_direct = float((levels[:, None] * ladder_pops).sum())
    assert abs(mean_a - mean_direct) <= 1e-10
    mean_b = float((levels[None, :] * added.populations()).sum())
    assert abs(mean_a - mean_b) <= 1e-10  # symmetric input, symmetric output


def _csr(state):
    d = state.dimension
    rows, cols, values = state.entries()
    return sparse.csr_array((values, (rows, cols)), shape=(d, d))


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
    rho = dense_tensor(state)
    out = np.zeros_like(rho)
    sa, sb = np.sqrt(n_a), np.sqrt(n_b)
    factor = (sa[1:, None, None, None] * sb[None, 1:, None, None]
              * sa[None, None, 1:, None] * sb[None, None, None, 1:])
    out[1:, 1:, 1:, 1:] = factor * rho[:-1, :-1, :-1, :-1]
    out /= exact_trace
    return from_matrix(c, out.reshape(c.dimension, c.dimension))


def _random_complex_state(da, db, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    rho = a @ a.conj().T
    return from_matrix(ModeCutoffs(da, db), rho / np.trace(rho).real)


@pytest.mark.parametrize("make_state", [
    lambda: tmsv_fock(SqueezingSpec(0.5), ModeCutoffs(16, 16)),
    lambda: evolve(tmsv_fock(SqueezingSpec(0.3), ModeCutoffs(16, 16)), AmplifierParams(1.05)),
    lambda: from_matrix(ModeCutoffs(20, 20), _thermal_two_mode(1.5, 20)),
    lambda: amplify_noon_asymmetric(NoonSpec(2), AmplifierParams(
        1.5, mode_config=MODE_ASYMMETRIC_A), ModeCutoffs(24, 3)),
    lambda: _random_complex_state(7, 5, seed=3),
], ids=["squeezed_vacuum", "evolved_squeezed_vacuum", "thermal_product",
        "asymmetric_noon", "random_complex"])
def test_photon_add_matches_dense_tensor(make_state):
    """The coordinate shift reproduces the dense-tensor construction bit for bit."""
    state = make_state()
    got, want = photon_add_both(state), _photon_add_dense(state)
    assert same_state(got, want)
    assert got.trace_deficit == want.trace_deficit


@pytest.mark.parametrize("mode", [MODE_SYMMETRIC, MODE_ASYMMETRIC_A])
def test_oracle_equivalence_grid(mode):
    """Closed forms against direct master-equation integration."""
    for n_ph in (1, 2):
        for g2 in (1.2, 1.5, 2.0):
            assert checks.closed_form_vs_oracle((mode,), (0.0,), n_ph, g2, CutoffPolicy()).passed
