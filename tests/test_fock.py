import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, ModeCutoffs,
                     NoonSpec, SqueezingSpec, TwoModeState, amplify_noon, amplify_state,
                     build_noon, config, evolve, fock, log_negativity_dense,
                     partial_transpose_b, photon_add_both, select_cutoffs, tmsv_fock,
                     trace_distance)
from noonamp.fock import hermitian_eigvalsh
from noonamp.negativity import log_negativity_block

from helpers import from_matrix, product_state, trace_and_purity

TOL = 1e-12


def random_density(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def test_cutoffs_validation():
    with pytest.raises(ValueError):
        ModeCutoffs(0, 4)
    with pytest.raises(ValueError):
        ModeCutoffs(4, -1)
    with pytest.raises(ValueError, match="cap"):
        ModeCutoffs(600, 600)
    assert ModeCutoffs(3, 5).dimension == 15
    assert ModeCutoffs(3, 5).flat_index(2, 4) == 14


def test_noon_spec_validation():
    with pytest.raises(ValueError):
        NoonSpec(0)


def test_build_noon_n1_entries():
    # four entries of 1/2 and nothing else
    state = build_noon(NoonSpec(1), ModeCutoffs(4, 4))
    c = state.cutoffs
    i, j = c.flat_index(1, 0), c.flat_index(0, 1)
    expected = np.zeros((16, 16), dtype=complex)
    expected[i, i] = expected[i, j] = expected[j, i] = expected[j, j] = 0.5
    assert np.array_equal(state.matrix, expected)
    assert state.trace_deficit == 0.0


def test_build_noon_pure():
    tr, purity = trace_and_purity(build_noon(NoonSpec(2), ModeCutoffs(8, 8)))
    assert abs(tr - 1.0) <= TOL
    assert abs(purity - 1.0) <= TOL


def test_build_noon_rank_one():
    state = build_noon(NoonSpec(3), ModeCutoffs(6, 6))
    eigs = np.linalg.eigvalsh(state.matrix)
    assert abs(eigs[-1] - 1.0) <= 1e-10
    assert np.abs(eigs[:-1]).max() <= 1e-10


def test_build_noon_cutoff_too_small():
    with pytest.raises(ValueError, match="cannot hold"):
        build_noon(NoonSpec(2), ModeCutoffs(2, 2))
    with pytest.raises(ValueError):
        build_noon(NoonSpec(2), ModeCutoffs(8, 2))


def test_noon_partial_transpose_entries():
    # diagonal 1/2 on |N,0> and |0,N|, off-diagonal 1/2 between |N,N> and |0,0>
    n = 2
    state = build_noon(NoonSpec(n), ModeCutoffs(4, 4))
    pt = partial_transpose_b(state)
    c = state.cutoffs
    expected = np.zeros((16, 16), dtype=complex)
    for k in (c.flat_index(n, 0), c.flat_index(0, n)):
        expected[k, k] = 0.5
    hi, lo = c.flat_index(n, n), c.flat_index(0, 0)
    expected[hi, lo] = expected[lo, hi] = 0.5
    assert np.abs(pt.matrix - expected).max() <= TOL
    # single negative eigenvalue at -1/2
    eigs = np.linalg.eigvalsh(pt.matrix)
    assert abs(eigs[0] + 0.5) <= 1e-10
    assert eigs[1] >= -1e-10


def test_pt_product_state_real_unchanged():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    a = a @ a.T
    a /= np.trace(a)
    b = rng.normal(size=(3, 3))
    b = b @ b.T
    b /= np.trace(b)
    state = product_state(a, b)
    pt = partial_transpose_b(state)
    assert np.abs(pt.matrix - state.matrix).max() <= TOL


def test_pt_involution_hermiticity_trace():
    rng = np.random.default_rng(5)
    for _ in range(6):
        cut = ModeCutoffs(int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        state = from_matrix(cut, random_density(cut.dimension, rng))
        pt = partial_transpose_b(state)
        assert np.abs(pt.matrix - pt.matrix.conj().T).max() <= TOL
        assert abs(pt.trace - state.trace) <= TOL
        again = partial_transpose_b(pt)
        assert np.array_equal(again.matrix, state.matrix)


def test_trace_and_purity_thermal_embedding():
    # thermal mode at gain 2 embedded against a trivial second mode; purity
    # of the geometric law is (1-q)/(1+q) = 1/3, checked by direct summation
    q = 0.5
    n = np.arange(60)
    probs = (1 - q) * q**n
    direct_purity = float((probs**2).sum())
    assert abs(direct_purity - 1.0 / 3.0) <= 1e-9
    state = product_state(np.diag(probs), np.array([[1.0]]))
    tr, purity = trace_and_purity(state)
    assert abs(tr - 1.0) <= 1e-12
    assert abs(purity - 1.0 / 3.0) <= 1e-9


def test_trace_and_purity_noon_and_zero():
    assert trace_and_purity(build_noon(NoonSpec(1), ModeCutoffs(3, 3))) == (1.0, 1.0)
    zero = from_matrix(ModeCutoffs(3, 3), np.zeros((9, 9), dtype=complex))
    assert trace_and_purity(zero) == (0.0, 0.0)
    assert zero.trace_deficit == 1.0


def test_state_validation():
    cut = ModeCutoffs(2, 2)
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        from_matrix(cut, bad)
    neg = np.diag([-1e-3, 0.5, 0.25, 0.25]).astype(complex)
    with pytest.raises(ValueError, match="negative"):
        from_matrix(cut, neg)
    overweight = np.diag([2.0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError, match="trace"):
        from_matrix(cut, overweight)


def test_sector_stack_validation():
    """The constructor takes a well-formed stack only, holding no sector
    below (0, 0); from_entries takes positions inside the basis only."""
    cut = ModeCutoffs(2, 3)
    with pytest.raises(ValueError, match="does not match"):
        TwoModeState(cut, [0], [0], np.zeros((1, 3, 2)))
    with pytest.raises(ValueError, match="below"):
        TwoModeState(cut, [-1], [0], np.zeros((1, 2, 3)))
    with pytest.raises(ValueError, match="below"):
        TwoModeState(cut, [0, 0], [0, -1], np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="below"):
        TwoModeState(cut, [0, 0], [0, 0], np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="below"):
        TwoModeState(cut, [0, 2], [0, 0], np.zeros((2, 2, 3)))
    padded = np.zeros((2, 2, 3))
    padded[1, 1, 0] = 0.1  # sector (1, 0) has positions j_a < 1 only
    with pytest.raises(ValueError, match="past the cutoffs"):
        TwoModeState(cut, [0, 1], [0, 0], padded, validate=False)
    with pytest.raises(ValueError, match="outside"):
        TwoModeState.from_entries(cut, [6], [0], [1.0])
    # a zero sector is not kept, and a zero imaginary part is dropped
    x = np.zeros((2, 2, 3), dtype=complex)
    x[0, 0, 0] = 1.0
    state = TwoModeState(cut, [0, 1], [0, 0], x)
    assert state.k_a.tolist() == [0] and state.k_b.tolist() == [0]
    assert state.x.dtype == np.float64 and state.trace_deficit == 0.0


def test_from_entries_keeps_upper_sectors_and_mirrors_entries():
    """from_entries stores sector (0, 0) and the sectors above it; entries()
    and matrix give back every entry, each mirror the conjugate."""
    rng = np.random.default_rng(2)
    cut = ModeCutoffs(2, 3)
    rho = random_density(cut.dimension, rng)
    state = from_matrix(cut, rho)
    codes = state.k_a * (2 * cut.cutoff_b - 1) + state.k_b
    assert codes[0] == 0 and np.all(np.diff(codes) > 0)
    assert state.x.shape[0] == (3 * 5 + 1) // 2   # of (2 da - 1)(2 db - 1) sectors
    m = state.matrix
    assert np.array_equal(np.tril(m, -1), np.triu(m, 1).conj().T)
    assert np.abs(m - rho).max() <= TOL


def test_complex_state_stores_diagonal_real():
    """The rounding-level imaginary parts that a complex input carries on its
    diagonal (7.8e-19 here) are dropped, so the dense matrix is Hermitian bit
    for bit, diagonal included."""
    rng = np.random.default_rng(0)
    rho = random_density(9, rng)
    assert np.any(np.diag(rho).imag)
    state = from_matrix(ModeCutoffs(3, 3), rho)
    assert state.x.dtype == np.complex128
    assert not np.any(state.x[(state.k_a == 0) & (state.k_b == 0)].imag)
    m = state.matrix
    assert np.array_equal(m, m.conj().T)


def test_from_entries_refuses_non_hermitian():
    """Outside input is checked for Hermiticity whether or not the state is
    validated; the stored half cannot be non-Hermitian afterwards."""
    rng = np.random.default_rng(2)
    skew = random_density(6, rng)
    skew[0, 1] += 1e-6
    for validate in (True, False):
        with pytest.raises(ValueError, match="not Hermitian"):
            from_matrix(ModeCutoffs(2, 3), skew, validate=validate)


def test_non_finite_entries_refused():
    """A comparison with NaN is false, so a NaN would pass a check written
    as ``x > bound``.  from_entries and the constructor refuse non-finite
    values whatever ``validate`` says, a NaN population or coherence
    included; a NaN coherence would otherwise read as zero negativity."""
    cut = ModeCutoffs(2, 2)
    for validate in (True, False):
        with pytest.raises(ValueError, match="finite"):
            TwoModeState.from_entries(cut, [0, 3], [0, 3], [np.nan, 0.5], validate=validate)
        with pytest.raises(ValueError, match="finite"):
            TwoModeState.from_entries(cut, [0, 3, 0, 3], [0, 3, 3, 0],
                                      [0.5, 0.5, np.nan, np.nan], validate=validate)
        with pytest.raises(ValueError, match="finite"):
            TwoModeState.from_entries(cut, [0], [0], [np.inf], validate=validate)
    x = np.zeros((1, 2, 2))
    x[0, 0, 0], x[0, 1, 1] = np.nan, 0.5
    with pytest.raises(ValueError, match="NaN"):
        TwoModeState(cut, [0], [0], x)
    x = np.zeros((2, 2, 2))
    x[0] = np.diag([0.5, 0.5])
    x[1, 0, 0] = np.nan   # the coupling sector (1, -1)
    for validate in (True, False):
        with pytest.raises(ValueError, match="finite"):
            TwoModeState(cut, [0, 1], [0, -1], x, validate=validate)


def test_state_immutable():
    state = build_noon(NoonSpec(1), ModeCutoffs(3, 3))
    with pytest.raises(AttributeError):
        state.trace_deficit = 0.5
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 1.0


def test_hermiticity_scanned_once_per_state(monkeypatch):
    """from_entries scans its input once, validated or not; the constructor,
    the partial transpose and both negativity routes never scan, since the
    stored half is Hermitian by construction."""
    scans = []
    scan = fock._hermiticity_error

    def counted(x):
        scans.append(x.size)
        return scan(x)

    monkeypatch.setattr(fock, "_hermiticity_error", counted)
    rng = np.random.default_rng(2)
    rho = random_density(6, rng)
    state = from_matrix(ModeCutoffs(2, 3), rho)
    assert len(scans) == 1
    for _ in range(2):
        # a random state fills every sector, which the block route refuses
        with pytest.raises(ValueError, match="dense route"):
            log_negativity_block(state)
        log_negativity_dense(state)
    TwoModeState(state.cutoffs, state.k_a, state.k_b, state.x)
    partial_transpose_b(partial_transpose_b(state))
    assert len(scans) == 1

    skew = rho.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        from_matrix(ModeCutoffs(2, 3), skew, validate=False)
    assert len(scans) == 2


def _amplified(n, g2, eta=0.0, mode="symmetric"):
    spec, params = NoonSpec(n), AmplifierParams(g2, eta=eta, mode_config=mode)
    return amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))


def _photon_added():
    return photon_add_both(tmsv_fock(SqueezingSpec(0.3), ModeCutoffs(18, 18)))


HERMITIAN_CASES = {
    "closed_form_symmetric": lambda: _amplified(2, 1.5),
    "closed_form_asymmetric": lambda: _amplified(3, 2.0, mode=MODE_ASYMMETRIC_A),
    "map_eta": lambda: _amplified(2, 1.5, eta=0.5),
    "map_eta_asymmetric": lambda: _amplified(2, 1.5, eta=0.5, mode=MODE_ASYMMETRIC_A),
    "evolve": lambda: evolve(build_noon(NoonSpec(2), ModeCutoffs(12, 12)),
                             AmplifierParams(1.05, eta=0.25)),
    "photon_added": _photon_added,
    "photon_added_amplified": lambda: amplify_state(_photon_added(),
                                                    AmplifierParams(1.3, eta=0.5)),
}


@pytest.mark.parametrize("transposed", [False, True], ids=["state", "pt"])
@pytest.mark.parametrize("case", list(HERMITIAN_CASES))
def test_every_family_exactly_hermitian(case, transposed):
    """Every state family, and its partial transpose, is Hermitian bit for
    bit: a stored sector and its mirror cannot drift apart."""
    state = HERMITIAN_CASES[case]()
    m = (partial_transpose_b(state) if transposed else state).matrix
    assert np.array_equal(m, m.conj().T)


def test_trace_distance():
    a = build_noon(NoonSpec(1), ModeCutoffs(3, 3))
    assert trace_distance(a, a) == 0.0
    vac = np.zeros((3, 3), dtype=complex)
    vac[0, 0] = 1.0
    b = product_state(vac, vac)
    assert abs(trace_distance(a, b) - 1.0) <= TOL
    with pytest.raises(ValueError):
        trace_distance(a, product_state(vac[:2, :2], vac[:2, :2]))


def test_hermitian_eigvalsh_sums_repeated_entries():
    """A position listed twice counts with the sum of its values."""
    c = ModeCutoffs(2, 2)
    # (0,0) twice; |0,1><1,0| and its mirror keep n_a + n_b
    rows, cols = np.array([0, 0, 1, 2]), np.array([0, 0, 2, 1])
    values = np.array([0.25, 0.25, 0.1, 0.1])
    m = np.zeros((4, 4))
    np.add.at(m, (rows, cols), values)
    assert m[0, 0] == 0.5
    assert np.abs(hermitian_eigvalsh(rows, cols, values, c)
                  - np.linalg.eigvalsh(m)).max() <= TOL


def test_hermitian_eigvalsh_of_no_entries_is_exact_zeros():
    """A matrix with no stored entry has d eigenvalues +0.0 and needs no solve."""
    c = ModeCutoffs(3, 4)
    empty = np.array([], dtype=np.intp)
    with mock.patch("numpy.linalg.eigvalsh", wraps=np.linalg.eigvalsh) as solve:
        eigs = hermitian_eigvalsh(empty, empty, np.array([]), c)
    assert not solve.called
    assert eigs.shape == (c.dimension,)
    assert not np.any(eigs) and not np.any(np.signbit(eigs))


def test_full_solve_refused_above_dimension_limit():
    """A matrix that conserves neither n_a - n_b nor n_a + n_b is solved
    whole, which above config.FULL_SOLVE_MAX_DIMENSION is refused before any
    d x d array exists; charge-conserving matrices of that size are solved
    in blocks."""
    cutoffs = ModeCutoffs(101, 101)
    d = cutoffs.dimension
    assert d > config.FULL_SOLVE_MAX_DIMENSION
    # |0,0><1,0| changes both charges, and the partial transpose keeps it
    i, j = cutoffs.flat_index(0, 0), cutoffs.flat_index(1, 0)
    mixed = TwoModeState.from_entries(cutoffs, [i, j, i, j], [i, j, j, i],
                                      [0.5, 0.5, 0.25, 0.25])
    noon = build_noon(NoonSpec(2), cutoffs)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="conserves neither"):
            trace_distance(mixed, noon)
        with pytest.raises(ValueError, match="conserves neither"):
            log_negativity_dense(mixed)
        assert trace_distance(noon, noon) == 0.0
        assert log_negativity_dense(noon).log_negativity == 1.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8 // 100


def test_log_factorials_match_exact_factorials():
    """The table agrees with log k! of the exact integer k! to a few ulp,
    relative, for every k < 1000; log 0! = log 1! = 0 exactly."""
    table = fock.log_factorials(1000)
    exact = np.array([math.log(math.factorial(k)) for k in range(1000)])
    assert table.shape == (1000,)
    np.testing.assert_allclose(table, exact, rtol=4 * np.finfo(float).eps, atol=0.0)
