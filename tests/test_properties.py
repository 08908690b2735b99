"""Property tests over the (N, G^2, mode) space of the closed forms (stored
entries, trace, negativity, Husimi Q, charge-blocked spectra), over the
(N, G^2, eta, mode) space of the block negativity, the exact channel and
the master-equation oracle, and over random sparse density matrices, real
and complex, and random unvalidated states in the block route's domain."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                     ModeCutoffs, NoonSpec,
                     SqueezingSpec, TwoModeState, amplify_noon, amplify_state, build_noon,
                     default_grid_for_state, evolve, partial_transpose_b, q_evaluate,
                     select_cutoffs, tmsv_fock, trace_distance)
from noonamp.fock import hermitian_eigvalsh
from noonamp.negativity import log_negativity_block, log_negativity_dense

from helpers import (charge_conserving_triplets, charges, from_matrix, per_block_eigvalsh,
                     per_component_reference)

DENSE_DIM_MAX = 1500  # keeps each dense eigensolve well under a second

photons = st.integers(1, 6)
gains = st.floats(1.0, 3.0, allow_nan=False)
modes = st.sampled_from((MODE_SYMMETRIC, MODE_ASYMMETRIC_A))


def amplified(n, g2, mode) -> TwoModeState:
    spec = NoonSpec(n)
    params = AmplifierParams(g2, mode_config=mode)
    return amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))


def assert_block_matches_dense(state):
    dense = log_negativity_dense(state)
    block = log_negativity_block(state)
    assert abs(block.log_negativity - dense.log_negativity) <= 1e-9
    assert abs(block.neg_sum - dense.neg_sum) <= 1e-9
    assert abs(block.min_eigenvalue - dense.min_eigenvalue) <= 1e-9
    return block


@settings(deadline=None, max_examples=40)
@given(photons, gains, modes)
def test_stored_entries_real_and_symmetric(n, g2, mode):
    """Real, held in the NOON's two stored phase sectors (exactly symmetric,
    as each stands for its mirror), and the partial transpose relabels
    (N, -N) to (N, N) with the entries in place."""
    state = amplified(n, g2, mode)
    assert state.x.dtype == np.float64
    assert state.k_a.tolist() == [0, n] and state.k_b.tolist() == [0, -n]
    pt = partial_transpose_b(state)
    assert pt.k_a.tolist() == [0, n] and pt.k_b.tolist() == [0, n]
    assert np.array_equal(pt.x, state.x)


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


@settings(deadline=None, max_examples=25)
@given(photons, gains, st.one_of(st.just(0.0), st.floats(0.0, 1.0)), modes)
@example(n=2, g2=2.0, eta=1.0, mode=MODE_SYMMETRIC)   # E_N = 0: every chain solved
def test_block_equals_per_component_reference(n, g2, eta, mode):
    """The block route, which eigensolves only the chains with a
    non-positive pivot, returns bit for bit the (neg_sum, min_eigenvalue,
    block_count) of one eigensolve per component."""
    spec = NoonSpec(n)
    params = AmplifierParams(g2, eta=eta, mode_config=mode)
    state = amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))
    res = log_negativity_block(state)
    assert (res.neg_sum, res.min_eigenvalue, res.block_count) == per_component_reference(state)


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


@settings(deadline=None, max_examples=40)
@given(photons, gains, st.one_of(st.just(0.0), st.floats(0.0, 1.0)), modes)
@example(n=1, g2=1.5, eta=5e-324, mode=MODE_SYMMETRIC)  # subnormal eta
def test_exact_channel_output(n, g2, eta, mode):
    """The exact channel applied to the NOON input gives a valid truncated
    density matrix whose trace does not exceed the input's (beyond
    rounding), and it is the closed form at every eta."""
    spec = NoonSpec(n)
    params = AmplifierParams(g2, eta=eta, mode_config=mode)
    cutoffs = select_cutoffs(spec, params, CutoffPolicy())
    noon = build_noon(spec, cutoffs)
    out = amplify_state(noon, params)
    TwoModeState(out.cutoffs, out.k_a, out.k_b, out.x)  # the constructor's checks
    assert out.k_a.tolist() == [0, n] and out.k_b.tolist() == [0, -n]
    assert out.trace <= noon.trace + 1e-14
    closed = amplify_noon(spec, params, cutoffs)
    assert np.array_equal(closed.k_a, out.k_a) and np.array_equal(closed.k_b, out.k_b)
    assert float(np.abs(closed.x - out.x).max()) <= 1e-15


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.floats(1.0, 2.0), st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       modes)
@example(n=4, g2=2.0, eta=2.0, mode=MODE_SYMMETRIC)  # the largest leak
def test_oracle_matches_exact_channel(n, g2, eta, mode):
    """The master-equation oracle agrees with the exact channel on the NOON
    input: trace distance at most 1e-11 at cutoff 120 per amplified mode,
    where the leak monitor passes everywhere on this range (measured at most
    1.3e-12, at the corner N = 4, G^2 = 2, eta = 2, both modes amplified)."""
    noon = build_noon(NoonSpec(n), ModeCutoffs(120, 120 if mode == MODE_SYMMETRIC else n + 1))
    params = AmplifierParams(g2, eta=eta, mode_config=mode)
    assert trace_distance(evolve(noon, params), amplify_state(noon, params)) <= 1e-11


def assert_spectrum_equals_full_solve(state, charge_conserved):
    """``hermitian_eigvalsh`` on the stored entries against one unblocked
    ``np.linalg.eigvalsh`` of the dense matrix, eigenvalue by eigenvalue.
    A charge-conserving matrix must be solved in blocks of at most one
    cutoff's rows, never whole."""
    want = np.linalg.eigvalsh(state.matrix)
    with mock.patch("numpy.linalg.eigvalsh", wraps=np.linalg.eigvalsh) as solve:
        got = hermitian_eigvalsh(*state.entries(), state.cutoffs)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14
    if charge_conserved:
        largest = max((call.args[0].shape[-1] for call in solve.call_args_list), default=0)
        assert largest <= min(state.cutoffs.cutoff_a, state.cutoffs.cutoff_b)


@settings(deadline=None, max_examples=25)
@given(photons, gains, modes, st.floats(0.05, 1.5))
def test_charge_blocked_spectrum_equals_full_solve(n, g2, mode, r):
    state = amplified(n, g2, mode)
    assume(state.dimension <= DENSE_DIM_MAX)
    assert_spectrum_equals_full_solve(partial_transpose_b(state), True)  # n_a - n_b
    assert_spectrum_equals_full_solve(state, True)  # n_a + n_b
    squeezed = tmsv_fock(SqueezingSpec(r), state.cutoffs)
    assert_spectrum_equals_full_solve(partial_transpose_b(squeezed), True)  # n_a + n_b


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 7), st.integers(1, 7), st.booleans(), st.integers(0, 2**32 - 1))
def test_charge_blocked_spectrum_equals_per_block_reference(da, db, is_complex, seed):
    """Bit for bit, the charge-blocked spectrum is one dense eigensolve per
    block with a stored entry, summed in input order, and exact zeros for
    every other block; no stacked solve receives a block without an entry.
    A matrix that conserves neither charge is one dense solve."""
    cutoffs = ModeCutoffs(da, db)
    rows, cols, values = charge_conserving_triplets(
        cutoffs, np.random.default_rng(seed), is_complex)
    with mock.patch("numpy.linalg.eigvalsh", wraps=np.linalg.eigvalsh) as solve:
        got = hermitian_eigvalsh(rows, cols, values, cutoffs)
    want = per_block_eigvalsh(rows, cols, values, cutoffs)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
    charge = next(c for c in charges(cutoffs) if np.array_equal(c[rows], c[cols]))
    stacks = [call.args[0] for call in solve.call_args_list]
    assert sum(stack.shape[0] for stack in stacks) == np.unique(charge[rows]).size
    assert all(np.any(stack, axis=(1, 2)).all() for stack in stacks)


@settings(deadline=None, max_examples=8)
@given(st.integers(1, 3), st.floats(1.05, 1.3), modes)
def test_trace_distance_equals_full_solve(n, g2, mode):
    spec = NoonSpec(n)
    params = AmplifierParams(g2, mode_config=mode)
    closed = amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))
    evolved = evolve(build_noon(spec, closed.cutoffs), params)
    want = 0.5 * float(np.abs(np.linalg.eigvalsh(closed.matrix - evolved.matrix)).sum())
    assert abs(trace_distance(closed, evolved) - want) <= 1e-14


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
    # complex iff an imaginary part survives off the diagonal, which is stored real
    return from_matrix(cutoffs, rho), bool(np.any(rho.imag[~np.eye(d, dtype=bool)]))


@st.composite
def two_sector_states(draw):
    """Unvalidated states holding sector (0, 0) and at most one other
    sector, the whole domain of the block route: cutoffs up to 8, real or
    complex, sectors with k_a = 0, zero couplings inside runs, diagonals of
    either sign and entries up to 1.5 in magnitude."""
    da, db = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from((0.3, 1.0, 1.5)))
    low = draw(st.sampled_from((0.0, -top)))
    diagonal = rng.uniform(low, top, (da, db)) * (rng.random((da, db)) < 0.85)
    sectors = [(ka, kb) for ka in range(da) for kb in range(1 - db, db) if (ka, kb) > (0, 0)]
    other = draw(st.sampled_from(sectors + [None]))
    if other is None:
        return TwoModeState(ModeCutoffs(da, db), [0], [0], [diagonal], validate=False)
    ka, kb = other
    scale = top * draw(st.sampled_from((0.05, 0.3, 1.0)))
    sector = rng.uniform(-scale, scale, (da, db))
    if draw(st.booleans()):
        sector = sector + 1j * rng.uniform(-scale, scale, (da, db))
    sector *= rng.random((da, db)) < draw(st.sampled_from((0.6, 0.9, 1.0)))
    sector[da - ka:] = 0.0
    sector[:, db - abs(kb):] = 0.0
    return TwoModeState(ModeCutoffs(da, db), [0, ka], [0, kb],
                        np.stack([diagonal.astype(sector.dtype), sector]), validate=False)


@settings(deadline=None, max_examples=200)
@given(two_sector_states())
def test_random_states_block_equals_per_component_reference(state):
    """Bit for bit, the block route is one eigensolve per chain, whether it
    filters the chains by their pivots or (past unit entries) solves all."""
    res = log_negativity_block(state)
    assert (res.neg_sum, res.min_eigenvalue, res.block_count) == per_component_reference(state)


@settings(deadline=None, max_examples=60)
@given(sparse_density())
def test_random_states_block_equals_dense(drawn):
    """The block route matches the dense one on every state it reads (sector
    (0, 0) and at most one other stored sector) and names the dense route
    for every other."""
    state, has_imag = drawn
    assert state.x.dtype == (np.complex128 if has_imag else np.float64)
    if state.x.shape[0] <= 2:
        assert assert_block_matches_dense(state).method == "block"
    else:
        with pytest.raises(ValueError, match="dense route"):
            log_negativity_block(state)
        log_negativity_dense(state)
    for matrix in (state, partial_transpose_b(state)):
        assert_spectrum_equals_full_solve(matrix, False)
