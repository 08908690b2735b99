"""Property tests over the (N, G^2, mode) space of the closed forms (stored
entries, trace, negativity, Husimi Q) and over random sparse density
matrices, real and complex."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                     ModeCutoffs, NoonSpec, TwoModeState, amplify_noon,
                     default_grid_for_state, partial_transpose_b, q_evaluate,
                     select_cutoffs)
from noonamp.negativity import log_negativity_block, log_negativity_dense

DENSE_DIM_MAX = 1500  # keeps each dense eigensolve well under a second

photons = st.integers(1, 6)
gains = st.floats(1.0, 3.0, allow_nan=False)
modes = st.sampled_from((MODE_SYMMETRIC, MODE_ASYMMETRIC_A))


def amplified(n, g2, mode) -> TwoModeState:
    spec = NoonSpec(n)
    params = AmplifierParams(g2, mode_config=mode)
    return amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))


def assert_block_matches_dense(state, **block_kw):
    dense = log_negativity_dense(state)
    block = log_negativity_block(state, **block_kw)
    assert abs(block.log_negativity - dense.log_negativity) <= 1e-9
    assert abs(block.neg_sum - dense.neg_sum) <= 1e-9
    assert abs(block.min_eigenvalue - dense.min_eigenvalue) <= 1e-9
    return block


@settings(deadline=None, max_examples=40)
@given(photons, gains, modes)
def test_stored_entries_real_and_symmetric(n, g2, mode):
    state = amplified(n, g2, mode)
    csr = state.csr
    assert csr.dtype == np.float64
    assert (csr != csr.T).nnz == 0
    assert np.all(csr.data != 0.0)
    assert partial_transpose_b(state).hermiticity_error() == 0.0


@settings(deadline=None, max_examples=40)
@given(photons, gains, modes)
def test_trace_plus_deficit_is_one(n, g2, mode):
    state = amplified(n, g2, mode)
    assert abs(state.trace + state.trace_deficit - 1.0) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(photons, gains, modes)
def test_block_equals_dense(n, g2, mode):
    state = amplified(n, g2, mode)
    assume(state.dimension <= DENSE_DIM_MAX)
    assert_block_matches_dense(state)


@settings(deadline=None, max_examples=40)
@given(photons, gains, gains, modes)
def test_negativity_does_not_increase_with_gain(n, g2_a, g2_b, mode):
    lo, hi = sorted((g2_a, g2_b))
    en_lo = log_negativity_block(amplified(n, lo, mode)).log_negativity
    en_hi = log_negativity_block(amplified(n, hi, mode)).log_negativity
    assert en_hi <= en_lo + 1e-9


@settings(deadline=None, max_examples=40)
@given(photons, gains)
def test_asymmetric_at_least_symmetric(n, g2):
    sym = log_negativity_block(amplified(n, g2, MODE_SYMMETRIC)).log_negativity
    asym = log_negativity_block(amplified(n, g2, MODE_ASYMMETRIC_A)).log_negativity
    assert asym >= sym - 1e-9


@settings(deadline=None, max_examples=40)
@given(photons, gains, modes)
def test_husimi_q_nonnegative(n, g2, mode):
    state = amplified(n, g2, mode)
    values = q_evaluate(state, default_grid_for_state(state, points=7)).values
    assert values.min() >= 0.0


@st.composite
def sparse_density(draw):
    """Mixture of a few random pure states, each on a few basis vectors, so
    the partial transpose splits into several components of mixed sizes."""
    cutoffs = ModeCutoffs(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = cutoffs.dimension
    rho = np.zeros((d, d), dtype=np.complex128 if is_complex else np.float64)
    for _ in range(draw(st.integers(1, 4))):
        support = rng.choice(d, size=int(rng.integers(1, min(d, 4) + 1)), replace=False)
        psi = np.zeros(d, dtype=rho.dtype)
        psi[support] = rng.normal(size=support.size)
        if is_complex:
            psi[support] += 1j * rng.normal(size=support.size)
        rho += rng.random() * np.outer(psi, psi.conj())
    rho /= np.trace(rho).real
    return TwoModeState(cutoffs, rho), bool(np.any(rho.imag))


@settings(deadline=None, max_examples=60)
@given(sparse_density())
def test_random_states_block_equals_dense(drawn):
    state, has_imag = drawn
    assert state.csr.dtype == (np.complex128 if has_imag else np.float64)
    assert assert_block_matches_dense(state).method == "block"

    pt = partial_transpose_b(state).csr.tocoo()
    if np.any(pt.row != pt.col):
        # a component couples two basis states: size_limit=1 forces the fallback
        with pytest.warns(RuntimeWarning, match="falling back"):
            forced = assert_block_matches_dense(state, size_limit=1)
        assert forced.method == "dense"
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assert_block_matches_dense(state, size_limit=1).method == "block"
