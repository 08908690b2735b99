import math
import tracemalloc

import numpy as np
import pytest

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                     ModeCutoffs, NoonSpec, TwoModeState, amplify_noon,
                     amplify_noon_asymmetric, amplify_noon_symmetric, build_noon,
                     select_cutoffs)
from noonamp import config, negativity
from noonamp.cli import SweepConfig, g2_values
from noonamp.fock import partial_transpose_b
from noonamp.negativity import log_negativity_block, log_negativity_dense

from helpers import dense_tensor, from_matrix, per_component_reference, product_state

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
    t = dense_tensor(state)
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

    t = dense_tensor(state)
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
    """A state without the closed-form sparsity fills every phase sector;
    the block route refuses it and names the dense route, which solves it."""
    rng = np.random.default_rng(17)
    dim = 24 * 25
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    state = from_matrix(ModeCutoffs(24, 25), rho)
    with pytest.raises(ValueError, match="dense route"):
        log_negativity_block(state)
    # complex, with more negative eigenvalues than numpy sums one by one
    assert state.x.dtype == np.complex128
    eigs = np.linalg.eigvalsh(partial_transpose_b(state).matrix)
    assert np.count_nonzero(eigs < -config.EIG_NEG_CLAMP) > 8
    dense = log_negativity_dense(state)
    assert abs(dense.neg_sum + eigs[eigs < -config.EIG_NEG_CLAMP].sum()) <= 1e-12


def test_negative_eigenvalue_clamp():
    """PT eigenvalues in [-config.EIG_NEG_CLAMP, 0) count as zero on both
    routes, in a 2x2 block and in a 1x1 block; one past the clamp is counted."""
    assert config.EIG_NEG_CLAMP == 1e-12
    c = ModeCutoffs(2, 2)
    i00, i01, i11 = c.flat_index(0, 0), c.flat_index(0, 1), c.flat_index(1, 1)
    for coupled, eig, counted in ((True, -5e-13, False), (True, -5e-12, True),
                                  (False, -5e-13, False), (False, -5e-12, True)):
        if coupled:
            # |0,0><1,1| + h.c. becomes |0,1><1,0| + h.c. under the partial
            # transpose: a 2x2 block with eigenvalues +-|eig|
            state = TwoModeState.from_entries(c, [i00, i11, i00, i11], [i00, i11, i11, i00],
                                              [0.5, 0.5, -eig, -eig])
        else:
            # a diagonal entry is its own 1x1 block, left in place by the PT
            # (unvalidated: -5e-12 is past the structural check's 1e-12)
            state = TwoModeState.from_entries(c, [i00, i11, i01], [i00, i11, i01],
                                              [0.5, 0.5, eig], validate=False)
        for res in (log_negativity_dense(state), log_negativity_block(state)):
            assert abs(res.min_eigenvalue - eig) <= 1e-24
            assert res.neg_sum == pytest.approx(-eig if counted else 0.0, rel=1e-12, abs=0.0)


def test_row_sums_match_one_sum_per_row():
    """``_neg_sums`` gives each ascending row's ``_neg_sum`` bit for bit, for
    rows with 0 to 39 negatives, some inside the clamp."""
    rng = np.random.default_rng(11)
    rows = []
    for k in list(range(40)) * 3:
        neg = -rng.uniform(1e-12, 1.0, size=k) * 10.0 ** -rng.integers(0, 8, size=k)
        rest = rng.uniform(-config.EIG_NEG_CLAMP, 1.0, size=40 - k)
        rows.append(np.sort(np.concatenate([neg, rest])))
    eigs = np.array(rows)
    # with rows free of negatives, and with a negative in every row
    for batch in (eigs, eigs[eigs[:, 0] < -config.EIG_NEG_CLAMP]):
        want = np.array([negativity._neg_sum(row) for row in batch])
        assert np.array_equal(negativity._neg_sums(batch), want)
        assert np.count_nonzero(want) > 100


def test_component_above_limit_refused_before_allocation():
    """A partial-transpose component larger than config.FULL_SOLVE_MAX_DIMENSION
    is refused before the block route allocates it."""
    cutoffs = ModeCutoffs(10001, 1)
    d = cutoffs.dimension
    assert d > config.FULL_SOLVE_MAX_DIMENSION
    # sector (1, 0) and its mirror couple |n> to |n + 1> in mode a: one
    # chain holding all d basis states (position d - 1 lies past the
    # sector's end)
    coupling = np.full((d, 1), 0.1 / d)
    coupling[-1] = 0.0
    state = TwoModeState(cutoffs, [0, 1], [0, 0], [np.full((d, 1), 1.0 / d), coupling])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="component of size 10001"):
            log_negativity_block(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8 // 100


def test_non_hermitian_rejected():
    """A non-Hermitian matrix never reaches either route: from_entries
    refuses it, validated or not.  Its Hermitian completion is accepted and
    the routes agree on it."""
    bad = np.zeros((9, 9), dtype=complex)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        from_matrix(ModeCutoffs(3, 3), bad, validate=False)
    state = from_matrix(ModeCutoffs(3, 3), bad + bad.conj().T, validate=False)
    dense, block = log_negativity_dense(state), log_negativity_block(state)
    assert block.log_negativity == pytest.approx(dense.log_negativity, abs=1e-12)


def test_zero_matrix_state():
    zero = from_matrix(ModeCutoffs(3, 3), np.zeros((9, 9), dtype=complex))
    res = log_negativity_block(zero)
    assert res.log_negativity == 0.0
    assert res.block_count == 0
    assert res.min_eigenvalue == 0.0


def _assert_matches_reference(state):
    res = log_negativity_block(state)
    assert (res.neg_sum, res.min_eigenvalue, res.block_count) == \
        per_component_reference(state)
    return res


@pytest.mark.parametrize("mode", [MODE_SYMMETRIC, MODE_ASYMMETRIC_A])
def test_block_matches_per_component_reference_on_golden_grid(mode):
    """Bit-for-bit agreement with one eigensolve per component at every
    (N, G^2) point of the golden sweep."""
    grid = g2_values(SweepConfig(family="noon_symmetric", n_values=(2,)))
    assert len(grid) == 41
    for n_ph in (2, 4, 6):
        spec = NoonSpec(n_ph)
        for g2 in grid:
            params = AmplifierParams(g2, mode_config=mode)
            _assert_matches_reference(
                amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy())))


def _chain_state(cutoffs, diagonal, couplings, dtype=float, validate=False):
    """The state whose partial transpose holds ``diagonal`` on its diagonal
    and, for each u: value in ``couplings``, the Hermitian coupling value
    at PT[u + 1, u] between neighbours in mode b.  Its stored phase sectors
    are (0, 0) and (0, 1)."""
    pt = np.diag(np.asarray(diagonal, dtype=dtype))
    for u, value in couplings.items():
        assert (u + 1) % cutoffs.cutoff_b != 0  # u + 1 is a neighbour of u
        pt[u + 1, u] = value
        pt[u, u + 1] = np.conj(value)
    state = partial_transpose_b(from_matrix(cutoffs, pt, validate=False))
    assert state.k_a.tolist() == [0, 0] and state.k_b.tolist() == [0, 1]
    if validate:
        state = TwoModeState(cutoffs, state.k_a, state.k_b, state.x)
    return state


@pytest.mark.parametrize("dtype", [float, complex])
def test_block_matches_reference_with_interleaved_sizes(dtype):
    """Chains of equal length that are not adjacent in chain order, with
    one, two and no negative eigenvalues among them, and a zero coupling
    that splits a chain."""
    c = ModeCutoffs(4, 5)   # chains run along the rows of 5
    rng = np.random.default_rng(5)
    diagonal = rng.uniform(0.0, 0.05, size=c.dimension)
    phase = np.exp(0.3j) if dtype is complex else 1.0
    # chain order (first member): lengths 2, 3, 2, 1, 1, 1, 4, 1, 2, 2, 1
    couplings = {0: 0.04 * phase,                        # [0, 1]
                 2: 0.1, 3: 0.1 * phase,                 # [2, 3, 4]: one negative
                 5: 0.001,                               # [5, 6]: none
                 10: 0.1, 11: 0.1 * phase, 12: 0.1,      # [10 .. 13]: two negatives
                 15: -0.05 * phase, 16: 0.0, 17: 0.02}   # [15, 16] and [17, 18]
    state = _chain_state(c, diagonal, couplings, dtype, validate=True)
    assert state.x.dtype == np.dtype(dtype)
    res = _assert_matches_reference(state)
    assert res.block_count == 11 and res.neg_sum > 0.0
    assert abs(res.log_negativity - log_negativity_dense(state).log_negativity) <= 1e-12


def test_block_matches_reference_with_negative_diagonal_components():
    """1x1 components with negative diagonal entries (an unvalidated state)
    between coupled components; basis state 5 has no stored entry."""
    c = ModeCutoffs(3, 3)
    diagonal = [0.2, 0.1, -3e-3, -5e-13, -2e-12, 0.0, 0.05, 0.1, 0.1]
    state = _chain_state(c, diagonal, {0: 0.3, 6: 0.2, 7: 0.2})
    res = _assert_matches_reference(state)
    assert res.block_count == 5


def test_block_solves_a_negative_zero_diagonal_entry_as_zero():
    """A stored -0.0 inside a chain is solved as 0.0, as the dense route and
    one eigensolve per component read it: LAPACK's eigenvalues of this
    chain move in their last bits with the sign of that zero."""
    diagonal = np.array([[0.0], [-0.0], [-1.0713336433416836], [-0.7564631221957726],
                         [0.7505880625018309]])
    coupling = np.array([[0.18530652379105095], [0.5472736997374432],
                         [0.12038650759302216], [-1.1386645510157571], [0.0]])
    signed, unsigned = (TwoModeState(ModeCutoffs(5, 1), [0, 1], [0, 0], [diag, coupling],
                                     validate=False) for diag in (diagonal, diagonal + 0.0))
    assert np.signbit(signed.x[0, 1, 0]) and not np.signbit(unsigned.x[0, 1, 0])
    assert _assert_matches_reference(signed) == log_negativity_block(unsigned)


def test_block_solves_each_component_size_once(monkeypatch):
    """One stacked eigensolve per distinct component size above 1."""
    spec = NoonSpec(2)
    params = AmplifierParams(2.0)
    state = amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    res = log_negativity_block(state)
    sizes = [shape[-1] for shape in calls]
    assert len(sizes) == len(set(sizes)) and min(sizes) > 1
    assert sum(shape[0] for shape in calls) < res.block_count



# The block route eigensolves only the chains that have a non-positive
# LDL^T pivot of T + EIG_NEG_CLAMP / 2, and every chain when those carry no
# negativity or an entry exceeds 1, each chain at most once.  Each test
# below holds it to the per-component reference bit for bit.

SHIFT = config.EIG_NEG_CLAMP / 2


@pytest.fixture
def solved(monkeypatch):
    """Shapes of the stacks handed to np.linalg.eigvalsh while it is active."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def _ulps(value, count):
    """``value`` moved by ``count`` units in the last place."""
    for _ in range(abs(count)):
        value = np.nextafter(value, math.copysign(np.inf, count))
    return float(value)


@pytest.mark.parametrize("negative_elsewhere", [False, True])
@pytest.mark.parametrize("depth", [0.4, 0.6, 1.0, 1.5])
def test_filter_near_the_clamp(depth, negative_elsewhere, solved):
    """Seven 2x2 chains with diagonal 1/4 and coupling 1/4 + depth *
    EIG_NEG_CLAMP, moved by -3..3 ulps, have smallest eigenvalue about
    -depth * EIG_NEG_CLAMP: above the pivot shift (0.4), between it and the
    clamp (0.6), at the clamp (1) and past it (1.5).  Only the chains below
    the shift are solved, and every chain is solved once when they carry no
    negativity: the chains the first pass skipped are added then."""
    c = ModeCutoffs(2, 14)   # chains run along the rows of 14
    couplings = {2 * k: _ulps(0.25 + depth * config.EIG_NEG_CLAMP, k - 3) for k in range(7)}
    if negative_elsewhere:
        couplings[14] = 0.35   # eigenvalues 0.25 -+ 0.35
    state = _chain_state(c, np.full(c.dimension, 0.25), couplings)
    expected = per_component_reference(state)
    solved.clear()
    res = log_negativity_block(state)
    assert (res.neg_sum, res.min_eigenvalue, res.block_count) == expected

    flagged = 7 * (depth > 0.5) + negative_elsewhere
    every = 7 + negative_elsewhere
    assert sum(shape[0] for shape in solved) == (every if res.neg_sum == 0.0 else flagged)
    if negative_elsewhere:
        assert res.min_eigenvalue == pytest.approx(-0.1, abs=1e-15)
    else:
        assert res.min_eigenvalue == pytest.approx(-depth * config.EIG_NEG_CLAMP,
                                                   abs=1e-15)
    if depth != 1.0:   # at the clamp, the ulps decide
        counted = 7 * 1.5 * config.EIG_NEG_CLAMP if depth > 1.0 else 0.0
        assert res.neg_sum == pytest.approx(counted + 0.1 * negative_elsewhere, abs=1e-15)


def test_filter_zero_pivots(solved):
    """Exactly zero pivots count as non-positive and leave no inf or nan:
    chain [0, 1] starts at diagonal -shift, so its first pivot is zero, and
    chain [3, 4] is [[1/2 - shift, 1/2], [1/2, 1/2 - shift]], whose second
    pivot, in the pass's last step, is (1/2 - shift + shift) - (1/2)^2 / (1/2)
    = 0."""
    c = ModeCutoffs(2, 5)   # chains run along the rows of 5
    half = 0.5 - SHIFT
    assert -SHIFT + SHIFT == 0.0 and half + SHIFT == 0.5
    diagonal = [-SHIFT, 0.3, 0.1, half, half] + [0.1] * 5
    state = _chain_state(c, diagonal, {0: 0.1, 3: 0.5})
    expected = per_component_reference(state)
    solved.clear()
    with np.errstate(all="raise"):
        res = log_negativity_block(state)
    assert (res.neg_sum, res.min_eigenvalue, res.block_count) == expected
    assert res.neg_sum > 0.02 and res.block_count == 8
    assert solved == [(2, 2, 2)]   # both chains flagged, and no fallback


def test_filter_solves_every_chain_past_unit_entries(solved):
    """A state with an entry above 1 lies outside the pivots' rounding
    margin, so every chain is solved, the positive-definite one too:
    [[3, 1.5], [1.5, 3]] in an unvalidated state, and [[0.2, 0.1],
    [0.1, 0.2]] next to a coherence of 1.5 in a validated one, since
    validation bounds the diagonal but not the coherences.  Each is solved
    once, also when no chain carries negativity."""
    c = ModeCutoffs(2, 4)   # chains run along the rows of 4
    cases = [
        # [2, 3] at 0.2 -+ 0.3
        (False, [3.0, 3.0, 0.2, 0.2, 0.5, 0.5, 0.5, 0.5], {0: 1.5, 2: 0.3}, 0.1),
        # trace 1; [0, 1] at 0.1 -+ 1.5
        (True, [0.1, 0.1, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1], {0: 1.5, 2: 0.1}, 1.4),
        # both chains positive definite: 3 -+ 1.5 and 0.2 -+ 0.1
        (False, [3.0, 3.0, 0.2, 0.2, 0.5, 0.5, 0.5, 0.5], {0: 1.5, 2: 0.1}, 0.0),
    ]
    for validate, diagonal, couplings, neg_sum in cases:
        state = _chain_state(c, diagonal, couplings, validate=validate)
        expected = per_component_reference(state)
        solved.clear()
        res = log_negativity_block(state)
        assert (res.neg_sum, res.min_eigenvalue, res.block_count) == expected
        assert res.neg_sum == pytest.approx(neg_sum, abs=1e-15)
        assert solved == [(2, 2, 2)], validate


@pytest.mark.parametrize("g2", [2.0, 2.5, 3.0])
def test_filter_fallback_rows_without_negativity(g2):
    """Symmetric N = 2 at eta = 1 is separable at these gains: E_N = 0, and
    min_eigenvalue, a rounding-level value, may lie in any chain, so every
    chain is solved."""
    spec = NoonSpec(2)
    params = AmplifierParams(g2, eta=1.0)
    state = amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))
    res = _assert_matches_reference(state)
    assert res.neg_sum == 0.0 and res.log_negativity == 0.0
    assert abs(res.min_eigenvalue) < config.EIG_NEG_CLAMP


def test_filter_solves_fewer_chains_than_it_reads(solved):
    """At the golden sweep's largest state (symmetric N = 6, G^2 = 3) the
    stacked eigensolves hold fewer matrices than the 756 chains longer
    than 1."""
    spec = NoonSpec(6)
    params = AmplifierParams(3.0)
    state = amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))
    expected = per_component_reference(state)
    solved.clear()
    res = log_negativity_block(state)
    assert (res.neg_sum, res.min_eigenvalue, res.block_count) == expected
    # a chain longer than 1 is a PT row with an off-diagonal entry
    rows, cols, _ = partial_transpose_b(state).entries()
    singles = np.unique(rows).size - np.unique(rows[rows != cols]).size
    assert res.block_count == 828 and res.block_count - singles == 756
    assert sum(shape[0] for shape in solved) < 756


@pytest.mark.parametrize("length", [2500, 5000])
def test_filter_memory_is_linear_in_dimension(length):
    """One positive-definite chain of ``length`` nodes next to ``length`` 1x1
    chains, one of them at -0.01: the pivot pass clears the long chain
    without a (chains x longest chain) array and without solving it
    (200 MB at 5,000).  The peak measured 60 bytes per basis state."""
    c = ModeCutoffs(length, 2)   # sector (1, 0) steps by 2 in the PT index
    diagonal = np.zeros((length, 2))
    diagonal[:, 0], diagonal[:, 1], diagonal[7, 1] = 3e-5, 1e-5, -0.01
    coupling = np.zeros((length, 2))
    coupling[:-1, 0] = 1e-5   # column 0 is one chain, column 1 is 1x1 chains
    state = TwoModeState(c, [0, 1], [0, 0], [diagonal, coupling], validate=False)
    tracemalloc.start()
    try:
        res = log_negativity_block(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.block_count == length + 1
    assert res.neg_sum == 0.01 and res.min_eigenvalue == -0.01
    assert peak < 100 * c.dimension
