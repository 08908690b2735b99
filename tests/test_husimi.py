import math
import tracemalloc

import numpy as np
import pytest

from noonamp import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                     ModeCutoffs, NoonSpec, QGrid, TwoModeState,
                     amplify_noon, amplify_noon_symmetric, build_noon, checks,
                     default_grid_for_state, evolve, photon_add_both, q_evaluate, q_pairs,
                     select_cutoffs, square_mesh, tmsv_fock, write_qgrid_csv)
from noonamp.gaussian import SqueezingSpec
from noonamp import husimi
from noonamp.husimi import coherent_matrix

from helpers import dense_tensor, from_matrix, product_state, riemann_mass


def vacuum_state(da=4, db=4):
    vac_a = np.zeros((da, da), dtype=complex)
    vac_a[0, 0] = 1.0
    vac_b = np.zeros((db, db), dtype=complex)
    vac_b[0, 0] = 1.0
    return product_state(vac_a, vac_b)


def test_coherent_matrix_against_direct():
    alphas = np.array([0.3 - 0.7j, 1.2, 0.0, -0.4j])
    v = coherent_matrix(alphas, 12)
    n = np.arange(12)
    fact = np.array([math.factorial(int(k)) for k in n], dtype=float)
    for i, a in enumerate(alphas):
        direct = np.exp(-abs(a) ** 2 / 2) * a**n / np.sqrt(fact)
        assert np.abs(v[i] - direct).max() <= 1e-14


def test_vacuum_at_origin():
    grid = QGrid(np.array([0j]), np.array([0j]))
    out = q_evaluate(vacuum_state(), grid)
    assert abs(out.values[0, 0] - 1.0 / math.pi**2) <= 1e-15


def test_noon_at_origin_is_zero():
    state = build_noon(NoonSpec(2), ModeCutoffs(6, 6))
    out = q_evaluate(state, QGrid(np.array([0j]), np.array([0j])))
    assert out.values[0, 0] == 0.0


def test_noon_q_closed_form():
    # (1/(2 N! pi^2)) |a^N + b^N|^2 exp(-(|a|^2+|b|^2)) pointwise
    n_ph = 2
    state = build_noon(NoonSpec(n_ph), ModeCutoffs(16, 16))
    mesh, _ = square_mesh(1.0, 5)
    out = q_evaluate(state, QGrid(mesh, mesh.copy()))
    a = mesh[:, None]
    b = mesh[None, :]
    analytic = (np.abs(a**n_ph + b**n_ph) ** 2
                * np.exp(-(np.abs(a) ** 2 + np.abs(b) ** 2))
                / (2 * math.factorial(n_ph) * math.pi**2))
    assert np.abs(out.values - analytic).max() <= 1e-12


def test_amplitude_guard():
    state = build_noon(NoonSpec(1), ModeCutoffs(4, 4))
    big = QGrid(np.array([3.0 + 0j]), np.array([0j]))
    with pytest.raises(ValueError, match="cutoff/4"):
        q_evaluate(state, big)
    with pytest.raises(ValueError, match="cutoff/4"):
        q_pairs(state, np.array([0j]), np.array([3.0 + 0j]))
    # a NaN amplitude fails the guard too, instead of yielding a NaN Q
    with pytest.raises(ValueError, match="cutoff/4"):
        q_pairs(state, [np.nan], [0])
    with pytest.raises(ValueError, match="cutoff/4"):
        q_evaluate(state, QGrid(np.array([0j]), np.array([complex(np.nan, 0.0)])))
    # |alpha|^2 = cutoff/4 itself is admitted, and exact for a finite support
    out = q_evaluate(state, QGrid(np.array([1.0 + 0j]), np.array([0j])))
    analytic = math.exp(-1.0) / (2 * math.pi**2)
    assert abs(out.values[0, 0] - analytic) <= 1e-12


def test_q_pairs_matches_grid_diagonal():
    state = build_noon(NoonSpec(2), ModeCutoffs(12, 12))
    alphas = np.array([0.4 + 0.2j, -0.8j, 1.0])
    betas = np.array([0.1, 0.6 - 0.3j, 1.0j])
    grid = q_evaluate(state, QGrid(alphas, betas))
    pairs = q_pairs(state, alphas, betas)
    assert np.abs(pairs - np.diagonal(grid.values)).max() <= 1e-14


def _q_dense(state, alphas, betas):
    """Q over the product grid by contracting the dense (da, db, da, db)
    tensor, as q_evaluate did before it read the stored entries."""
    c = state.cutoffs
    db = c.cutoff_b
    va = coherent_matrix(alphas, c.cutoff_a)
    vb = coherent_matrix(betas, db)
    t = dense_tensor(state).astype(np.complex128)
    w = (vb.conj()[:, :, None] * vb[:, None, :]).reshape(len(vb), db * db)
    x = np.tensordot(va.conj(), t, axes=([1], [0]))  # (k, db, da, db)
    u = np.einsum("kmpq,kp->kmq", x, va, optimize=True).reshape(len(va), db * db)
    return np.clip((u @ w.T).real / math.pi**2, 0.0, None)


def _q_pairs_dense(state, alphas, betas):
    """Q at matched pairs from the dense tensor, one einsum per pair."""
    c = state.cutoffs
    va = coherent_matrix(alphas, c.cutoff_a)
    vb = coherent_matrix(betas, c.cutoff_b)
    t = dense_tensor(state).astype(np.complex128)
    out = [np.einsum("nmpq,n,m,p,q->", t, va[k].conj(), vb[k].conj(), va[k], vb[k],
                     optimize=True).real / math.pi**2 for k in range(len(va))]
    return np.clip(np.array(out), 0.0, None)


def _auto_noon(n, g2, mode):
    spec = NoonSpec(n)
    params = AmplifierParams(g2, mode_config=mode)
    return amplify_noon(spec, params, select_cutoffs(spec, params, CutoffPolicy()))


def _random_complex_state(da, db, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    rho = a @ a.conj().T
    return from_matrix(ModeCutoffs(da, db), rho / np.trace(rho).real)


@pytest.mark.parametrize("make_state", [
    lambda: _auto_noon(4, 2.0, MODE_SYMMETRIC),
    lambda: _auto_noon(4, 2.0, MODE_ASYMMETRIC_A),
    lambda: _random_complex_state(7, 5, seed=11),
    lambda: evolve(photon_add_both(tmsv_fock(SqueezingSpec(0.3), ModeCutoffs(16, 16))),
                   AmplifierParams(1.05)),
    lambda: vacuum_state(5, 3),
], ids=["symmetric_noon", "asymmetric_noon", "random_complex",
        "evolved_photon_added", "vacuum"])
def test_stored_entry_contraction_matches_dense(make_state):
    """The contraction over stored entries reproduces the dense-tensor one;
    the random complex state fills every (n, p) and (m, q) pair."""
    state = make_state()
    grid = default_grid_for_state(state, points=5)
    got = q_evaluate(state, grid).values
    assert np.abs(got - _q_dense(state, grid.alpha_samples, grid.beta_samples)).max() <= 1e-15
    alphas, betas = grid.alpha_samples, grid.beta_samples[::-1]
    got = q_pairs(state, alphas, betas)
    assert np.abs(got - _q_pairs_dense(state, alphas, betas)).max() <= 1e-15


def test_q_values_nonnegative_and_clamped():
    spec = NoonSpec(2)
    params = AmplifierParams(1.7)
    state = amplify_noon_symmetric(spec, params, ModeCutoffs(24, 24))
    grid = q_evaluate(state, default_grid_for_state(state, points=9))
    assert grid.values.min() >= 0.0


def test_q_negative_state_raises():
    # an indefinite Hermitian matrix is not a state; Q goes genuinely negative
    cut = ModeCutoffs(8, 8)
    m = np.zeros((64, 64), dtype=complex)
    i00, i11 = cut.flat_index(0, 0), cut.flat_index(1, 1)
    m[i00, i00] = m[i11, i11] = 0.5
    m[i00, i11] = m[i11, i00] = -0.6
    state = from_matrix(cut, m, validate=False)
    grid = QGrid(np.array([0.8 + 0j]), np.array([0.8 + 0j]))
    with pytest.raises(ValueError, match="clamp"):
        q_evaluate(state, grid)


def test_q_pairs_negative_state_raises():
    """Not positive semidefinite, yet it passes construction: a coherence of
    0.9 between |0,0> and |1,0>, each holding 0.5.  Both evaluators refuse
    the same Q."""
    state = TwoModeState.from_entries(ModeCutoffs(4, 4), [0, 4, 0, 4], [0, 4, 4, 0],
                                      [0.5, 0.5, 0.9, 0.9])
    alphas, betas = np.array([-0.7 + 0j]), np.array([0j])
    with pytest.raises(ValueError, match=r"Q dipped to -3\.197e-02, beyond the clamp"):
        q_evaluate(state, QGrid(alphas, betas))
    with pytest.raises(ValueError, match=r"Q dipped to -3\.197e-02, beyond the clamp"):
        q_pairs(state, alphas, betas)


@pytest.mark.parametrize("mode,g2", [(MODE_SYMMETRIC, 1.5), (MODE_ASYMMETRIC_A, 2.0),
                                     (MODE_SYMMETRIC, 1.0)])
def test_scaling_law(mode, g2):
    """At unit gain the amplified state is the NOON input itself, so the law
    holds to rounding (1e-12) rather than the check's 1e-8."""
    fixed = CutoffPolicy(fixed_cutoffs=ModeCutoffs(36, 36))
    result = checks.scaling_law((mode,), 2, (g2,), fixed)
    assert result.passed and result.metric <= (1e-12 if g2 == 1.0 else 1e-8)


def test_zero_candidates_generator():
    g = math.sqrt(2.0)
    for n in range(1, 7):
        alphas, betas = checks._noon_zeros(n, 2.0)
        assert len(alphas) == 2 * n
        # the stretched zeros satisfy (a/G)^N + (b/G)^N = 0
        assert np.abs((alphas / g) ** n + (betas / g) ** n).max() <= 1e-12, n


def test_zero_locus_examples():
    spec = NoonSpec(2)
    g2 = 1.5
    g = math.sqrt(g2)
    state = amplify_noon_symmetric(spec, AmplifierParams(g2), ModeCutoffs(26, 26))
    q_zero = q_pairs(state, np.array([g * 1.0 + 0j]), np.array([g * 1j]))
    assert q_zero[0] < 1e-13
    q_ctrl = q_pairs(state, np.array([g * 1.0 + 0j]), np.array([g * 1.05j]))
    assert q_ctrl[0] > 1e-6

    result = checks.zero_locus(((2, g2), (4, 2.0)), CutoffPolicy())
    assert result.passed and result.metric == 0.0


def test_zero_locus_reads_policy():
    """The battery's policy reaches the check: at fixed 8 x 8 cutoffs the
    truncated state no longer keeps the zeros that the auto cutoffs do."""
    fixed = CutoffPolicy(fixed_cutoffs=ModeCutoffs(8, 8))
    assert not checks.zero_locus(((2, 1.5),), fixed).passed


def test_zero_locus_rejects_filled_zeros(monkeypatch):
    # feed non-zero points as the "zeros": the check must fail
    monkeypatch.setattr(checks, "_noon_zeros",
                        lambda n, g2: (np.array([1.2 + 0j]), np.array([1.2 + 0j])))
    result = checks.zero_locus(((2, 1.5),), CutoffPolicy())  # a^2 + b^2 != 0
    assert not result.passed and result.metric == 1.0


def test_riemann_normalization_converges():
    state = vacuum_state(40, 40)
    masses = []
    for extent in (1.2, 1.6, 2.2):
        mesh, spacing = square_mesh(extent, 21)
        grid = q_evaluate(state, QGrid(mesh, mesh.copy()))
        masses.append(riemann_mass(grid, spacing, spacing))
    assert masses[0] < masses[1] < masses[2] <= 1.02
    # deficit consistent with the Gaussian tail outside the square
    assert abs(masses[2] - 1.0) < 3 * (1.0 - math.erf(2.2) ** 4) + 1e-3


@pytest.mark.parametrize("extent", [0.5, 3.0])
def test_square_mesh_samples_the_cell_midpoints(extent):
    """Each sample is the midpoint of its cell under the mesh's spacing, so
    a one-point mesh samples the centre 0 with spacing 2 extent."""
    mesh, spacing = square_mesh(extent, 1)
    assert mesh.tolist() == [0j] and spacing == 2.0 * extent
    mesh, spacing = square_mesh(extent, 3)
    assert spacing == extent and 0j in mesh.tolist()
    assert np.abs(mesh.real).max() == np.abs(mesh.imag).max() == extent


def test_default_grid_for_state_shrinks():
    state = build_noon(NoonSpec(1), ModeCutoffs(8, 32))
    grid = default_grid_for_state(state, extent=3.0, points=5)
    assert np.max(np.abs(grid.alpha_samples) ** 2) <= 8 / 4.0 + 1e-12
    assert np.max(np.abs(grid.beta_samples) ** 2) <= 32 / 4.0 + 1e-12
    q_evaluate(state, grid)  # guard holds by construction
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="extent must be finite"):
            square_mesh(bad, 5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="extent must be finite"):
            default_grid_for_state(state, extent=bad, points=5)


def test_q_evaluate_memory_is_bounded_by_the_result():
    """Q of a two-sector state over 961 x 961 pairs peaks under 2.5 times
    the result's bytes in tracemalloc (2.1 measured): each sector's share is one
    real product.  A complex product per sector, of which only the real
    part is kept, peaks at 3.1 times."""
    mesh, _ = square_mesh(1.0, 31)
    state = build_noon(NoonSpec(2), ModeCutoffs(8, 8))
    tracemalloc.start()
    try:
        values = q_evaluate(state, QGrid(mesh, mesh)).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (961, 961)
    assert peak < 2.5 * values.nbytes


def test_qgrid_csv_dump(tmp_path):
    state = build_noon(NoonSpec(1), ModeCutoffs(6, 6))
    mesh, _ = square_mesh(0.8, 3)
    grid = q_evaluate(state, QGrid(mesh, mesh.copy()))
    path = tmp_path / "q.csv"
    write_qgrid_csv(grid, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re_alpha,im_alpha,re_beta,im_beta,q_value"
    assert len(lines) == 1 + 9 * 9
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 5


def test_qgrid_csv_matches_per_row_format(tmp_path):
    """Formatting each amplitude once per axis writes the bytes that
    formatting every field of every row does."""
    state = build_noon(NoonSpec(2), ModeCutoffs(40, 40))
    mesh, _ = square_mesh(2.0, 5)  # -2, -1, 0, 1, 2 on both axes
    betas = np.concatenate([mesh, [0.35 - 1.25j, complex(-0.0, 1.0)]])
    grid = q_evaluate(state, QGrid(mesh, betas))
    path = tmp_path / "q.csv"
    write_qgrid_csv(grid, path)
    assert path.read_bytes() == _per_value_csv(grid)


def _per_value_csv(grid):
    """The CSV bytes with every field of every row formatted on its own."""
    want = ["re_alpha,im_alpha,re_beta,im_beta,q_value\n"]
    for i, a in enumerate(grid.alpha_samples):
        for j, b in enumerate(grid.beta_samples):
            want.append(f"{a.real:.12g},{a.imag:.12g},{b.real:.12g},{b.imag:.12g},"
                        f"{grid.values[i, j]:.12g}\n")
    return "".join(want).encode()


@pytest.mark.parametrize("kind, block", [
    pytest.param(kind, block, id=kind if block is None else f"{kind}-block{block}")
    for block in (None, 100, 1) for kind in ("repeated", "clamped_zeros", "all_distinct")])
def test_qgrid_csv_formats_each_distinct_value_once(tmp_path, monkeypatch, kind, block):
    """Formatting each distinct Q value once per block writes the bytes that
    formatting every value does: on an evaluated grid, where values repeat
    and clamped zeros sit at the NOON's zeros, on hand-set values that
    include -0.0 next to 0.0 and a subnormal, and on all-distinct values;
    in one block, in blocks of two of the 49 rows (the last one short),
    and one row per block."""
    if block is not None:
        monkeypatch.setattr(husimi, "_CSV_BLOCK", block)
    mesh, _ = square_mesh(1.5, 7)
    if kind == "repeated":
        grid = q_evaluate(build_noon(NoonSpec(2), ModeCutoffs(24, 24)), QGrid(mesh, mesh.copy()))
        assert 0 < np.unique(grid.values).size < grid.values.size // 4
    elif kind == "clamped_zeros":
        # Q of the N = 1 NOON state vanishes where beta = -alpha
        grid = q_evaluate(build_noon(NoonSpec(1), ModeCutoffs(24, 24)), QGrid(mesh, mesh.copy()))
        assert np.count_nonzero(grid.values == 0.0) >= mesh.size // 2
        values = grid.values.copy()
        values[0, :4] = [-0.0, 0.0, 5e-324, 1.0 / 3.0]
        grid = QGrid(mesh, mesh.copy(), values)
    else:
        rng = np.random.default_rng(11)
        grid = QGrid(mesh, mesh.copy(), rng.random((49, 49)) * 10.0 ** rng.integers(-20, 2, (49, 49)))
        assert np.unique(grid.values).size == grid.values.size
    path = tmp_path / "q.csv"
    write_qgrid_csv(grid, path)
    assert path.read_bytes() == _per_value_csv(grid)


def test_qgrid_csv_memory_is_bounded_by_the_block(tmp_path):
    """A grid of four blocks (2^19 values, 4096 distinct) is written with a
    tracemalloc peak under 16 MiB: only one block's indices and texts are
    held at once.  Holding every index as a Python int, as the unblocked
    writer did, peaked at 23.7 MiB here."""
    rng = np.random.default_rng(5)
    alphas = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    betas = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    grid = QGrid(alphas, betas, rng.integers(0, 4096, (512, 1024)) / 4096.0)
    assert grid.values.size == 4 * husimi._CSV_BLOCK
    tracemalloc.start()
    try:
        write_qgrid_csv(grid, tmp_path / "q.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    with open(tmp_path / "q.csv") as fh:
        assert sum(1 for _ in fh) == 1 + grid.values.size
