import math

import numpy as np
import pytest

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                     ModeCutoffs, NoonSpec, TwoModeState, amplify_noon,
                     amplify_noon_asymmetric, amplify_noon_symmetric, build_noon,
                     select_cutoffs)
from noonamp.fock import product_state
from noonamp.negativity import log_negativity_block, log_negativity_dense

# dense eigensolve at auto cutoffs (tail 1e-10), stable to 4e-16 under
# cutoff doubling; see test_golden_symmetric_value
GOLDEN_EN_SYM_N2_G2_1P5 = 0.5384015191883607


@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_ideal_noon_negativity(n_ph):
    state = build_noon(NoonSpec(n_ph), ModeCutoffs(n_ph + 2, n_ph + 2))
    for res in (log_negativity_dense(state), log_negativity_block(state)):
        assert abs(res.neg_sum - 0.5) <= 1e-10
        assert abs(res.log_negativity - 1.0) <= 1e-10
        assert abs(res.min_eigenvalue + 0.5) <= 1e-10
        # definitional identity of the result record
        assert abs(res.log_negativity - math.log2(2 * res.neg_sum + 1)) <= 1e-12


def test_product_states_have_zero_negativity():
    fock_10 = np.zeros((3, 3), dtype=complex)
    fock_10[1, 1] = 1.0
    vac = np.zeros((3, 3), dtype=complex)
    vac[0, 0] = 1.0
    state = product_state(fock_10, vac)
    assert log_negativity_dense(state).log_negativity == 0.0
    assert log_negativity_block(state).log_negativity == 0.0

    rng = np.random.default_rng(3)
    for _ in range(4):
        probs_a = rng.dirichlet(np.ones(4))
        probs_b = rng.dirichlet(np.ones(3))
        state = product_state(np.diag(probs_a).astype(complex),
                              np.diag(probs_b).astype(complex))
        assert log_negativity_dense(state).log_negativity == 0.0


def test_golden_symmetric_value():
    spec = NoonSpec(2)
    params = AmplifierParams(1.5)
    cut = select_cutoffs(spec, params, CutoffPolicy())
    state = amplify_noon_symmetric(spec, params, cut)
    res = log_negativity_dense(state)
    assert abs(res.log_negativity - GOLDEN_EN_SYM_N2_G2_1P5) <= 1e-8
    # cutoff stability: doubling moves E_N by less than 10x the deficit
    double = amplify_noon_symmetric(spec, params,
                                    ModeCutoffs(2 * cut.cutoff_a, 2 * cut.cutoff_b))
    res2 = log_negativity_dense(double)
    assert abs(res2.log_negativity - res.log_negativity) < 10 * max(state.trace_deficit, 1e-15)


@pytest.mark.parametrize("mode", [MODE_SYMMETRIC, MODE_ASYMMETRIC_A])
def test_block_dense_agreement(mode):
    for n_ph in (2, 3):
        for g2 in (1.1, 1.5, 2.0, 3.0):
            spec = NoonSpec(n_ph)
            params = AmplifierParams(g2, mode_config=mode)
            state = amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))
            dense = log_negativity_dense(state)
            block = log_negativity_block(state)
            assert abs(dense.log_negativity - block.log_negativity) <= 1e-9
            assert abs(dense.min_eigenvalue - block.min_eigenvalue) <= 1e-9


def test_block_components_asymmetric_are_pairs():
    spec = NoonSpec(2)
    params = AmplifierParams(2.0, mode_config=MODE_ASYMMETRIC_A)
    cut = select_cutoffs(spec, params, CutoffPolicy())
    state = amplify_noon_asymmetric(spec, params, cut)
    res = log_negativity_block(state)
    assert res.method == "block"
    assert res.block_count is not None and res.block_count > 0

    # the 2x2 Hermitian spectrum in closed form, accumulated independently
    t = state.tensor()
    pt = t.transpose(0, 3, 2, 1)
    d = state.dimension
    ptm = pt.reshape(d, d)
    neg = 0.0
    seen = set()
    for i in range(d):
        for j in range(i + 1, d):
            if ptm[i, j] != 0 and (i, j) not in seen:
                seen.add((i, j))
                d1, d2 = ptm[i, i].real, ptm[j, j].real
                c = abs(ptm[i, j])
                lo = (d1 + d2) / 2 - math.sqrt(((d1 - d2) / 2) ** 2 + c**2)
                if lo < -1e-12:
                    neg += -lo
    assert abs(res.neg_sum - neg) <= 1e-10


def test_block_components_symmetric_are_rays():
    """Couplings run along (n+kN, m+kN) rays, so the labels inside any
    connected component differ by multiples of (N, N)."""
    n_ph = 2
    spec = NoonSpec(n_ph)
    params = AmplifierParams(1.8)
    cut = select_cutoffs(spec, params, CutoffPolicy())
    state = amplify_noon_symmetric(spec, params, cut)
    db = cut.cutoff_b

    t = state.tensor()
    pt = t.transpose(0, 3, 2, 1).reshape(state.dimension, state.dimension)
    rows, cols = np.nonzero(pt)
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(rows, cols):
        if i != j:
            parent[find(int(i))] = find(int(j))
    groups = {}
    for k in set(parent):
        groups.setdefault(find(k), []).append(k)
    for members in groups.values():
        base = members[0]
        for other in members[1:]:
            dn = other // db - base // db
            dm = other % db - base % db
            assert dn == dm and dn % n_ph == 0


def test_block_fallback_on_dense_state():
    rng = np.random.default_rng(17)
    dim = 24 * 25
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    state = TwoModeState(ModeCutoffs(24, 25), rho)
    with pytest.warns(RuntimeWarning, match="falling back"):
        res = log_negativity_block(state, size_limit=64)
    assert res.method == "dense"
    dense = log_negativity_dense(state)
    assert abs(res.log_negativity - dense.log_negativity) <= 1e-12


def test_negative_eigenvalue_clamp():
    state = build_noon(NoonSpec(1), ModeCutoffs(3, 3))
    # with a clamp past -1/2 the negativity is suppressed entirely
    res = log_negativity_dense(state, clamp=0.6)
    assert res.neg_sum == 0.0
    assert res.log_negativity == 0.0
    assert res.min_eigenvalue < -0.4


def test_non_hermitian_rejected():
    bad = np.zeros((9, 9), dtype=complex)
    bad[0, 1] = 0.5
    state = TwoModeState(ModeCutoffs(3, 3), bad, validate=False)
    with pytest.raises(ValueError, match="Hermitian"):
        log_negativity_dense(state)
    with pytest.raises(ValueError, match="Hermitian"):
        log_negativity_block(state)


def test_zero_matrix_state():
    zero = TwoModeState(ModeCutoffs(3, 3), np.zeros((9, 9), dtype=complex))
    res = log_negativity_block(zero)
    assert res.log_negativity == 0.0
    assert res.block_count == 0
    assert res.min_eigenvalue == 0.0
