"""Truncated two-mode Fock-space states and structural operations.

Basis convention: the flattened index of the pair |n_a, n_b> is
``n_a * cutoff_b + n_b`` (row-major in the mode-a label).  A density
matrix is stored as its nonzero entries over that basis, in a
``scipy.sparse.csr_array``: the closed-form states fill a vanishing share
of the d^2 entries, so everything that needs only the nonzeros (trace,
populations, purity, partial transpose, the block negativity) runs in
O(nnz).  The entries are real (float64) for every state the package
builds and complex128 only for genuinely complex input.  The dense
eigensolves behind the dense negativity and the trace distance
(``hermitian_eigvalsh``) read the stored entries too and solve one
conserved-charge block at a time.  A dense (d, d) copy is made only for a
matrix that conserves no charge and by ``TwoModeState.matrix``, which no
package code reads.  States are immutable after construction; every
operation here is a pure function.
"""

from dataclasses import dataclass

import numpy as np

from . import config


@dataclass(frozen=True)
class ModeCutoffs:
    """Fock dimensions of the two modes (indices 0 .. cutoff-1)."""

    cutoff_a: int
    cutoff_b: int

    def __post_init__(self):
        if self.cutoff_a < 1 or self.cutoff_b < 1:
            raise ValueError("cutoffs must be >= 1")
        if self.dimension > config.MAX_TOTAL_DIMENSION:
            raise ValueError(
                f"total dimension {self.dimension} exceeds the cap "
                f"{config.MAX_TOTAL_DIMENSION}"
            )

    @property
    def dimension(self) -> int:
        return self.cutoff_a * self.cutoff_b

    def flat_index(self, n_a: int, n_b: int) -> int:
        return n_a * self.cutoff_b + n_b


@dataclass(frozen=True)
class NoonSpec:
    """N photons in one mode or the other, in equal superposition."""

    n_photons: int

    def __post_init__(self):
        if self.n_photons < 1:
            raise ValueError("n_photons must be >= 1")


class TwoModeState:
    """Density matrix of a truncated two-mode state, stored sparse.

    The stored entries are a ``scipy.sparse.csr_array`` over the flattened
    basis with explicit zeros removed (``csr``).  They are float64 unless the
    input has a nonzero imaginary part, in which case they are complex128.
    ``matrix`` builds a read-only dense copy for consumers that need one;
    everything that reads only the nonzeros uses ``csr``.

    Construction checks the stored entries: Hermiticity, a non-negative
    diagonal and a trace of at most 1.  The Hermiticity error found there is
    kept, so ``hermiticity_error`` (and the negativity's check) never scans
    the entries again; a state built with ``validate=False`` computes it at
    the first call instead.  ``trace_deficit`` records
    1 - Tr(rho): states built by truncating an infinite sum are never
    renormalized, the missing tail is carried explicitly so downstream
    tolerances can budget for it.
    """

    __slots__ = ("cutoffs", "csr", "trace_deficit", "_hermiticity_error")

    def __init__(self, cutoffs: ModeCutoffs, matrix, validate: bool = True,
                 atol: float | None = None):
        """``matrix`` is a dense (d, d) array or any scipy sparse array."""
        # scipy.sparse is imported at first use: at module level it would add
        # about 270 ms to importing the package (when nothing else has loaded
        # scipy yet), which commands without a state (thresholds, the
        # Gaussian family) pay for nothing
        from scipy import sparse

        atol = config.ATOL_STRUCTURAL if atol is None else atol
        csr = sparse.csr_array(matrix if sparse.issparse(matrix) else np.asarray(matrix),
                               copy=True)
        d = cutoffs.dimension
        if csr.shape != (d, d):
            raise ValueError(f"matrix shape {csr.shape} does not match dimension {d}")
        csr.sum_duplicates()
        csr.eliminate_zeros()
        if np.iscomplexobj(csr.data) and not np.any(csr.data.imag):
            csr = csr.real
        csr = csr.astype(np.complex128 if np.iscomplexobj(csr.data) else np.float64,
                         copy=False)
        trace = _trace(csr)
        herm_err = None
        if validate:
            herm_err = _hermiticity_error(csr)
            if herm_err > atol:
                raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {herm_err:.3e}")
            diag = csr.diagonal()
            if float(np.abs(diag.imag).max(initial=0.0)) > atol:
                raise ValueError("diagonal has imaginary parts beyond tolerance")
            if float(diag.real.min(initial=0.0)) < -atol:
                raise ValueError("diagonal has negative entries beyond tolerance")
            if trace > 1.0 + 1e-9:
                raise ValueError(f"trace {trace} exceeds 1; not a truncated density matrix")
        for arr in (csr.data, csr.indices, csr.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "cutoffs", cutoffs)
        object.__setattr__(self, "csr", csr)
        object.__setattr__(self, "trace_deficit", max(0.0, 1.0 - trace))
        object.__setattr__(self, "_hermiticity_error", herm_err)

    @classmethod
    def from_entries(cls, cutoffs: ModeCutoffs, rows, cols, values,
                     **kwargs) -> "TwoModeState":
        """State from COO triplets over the flattened basis; repeated
        (row, col) pairs are summed."""
        from scipy import sparse

        d = cutoffs.dimension
        return cls(cutoffs, sparse.coo_array((values, (rows, cols)), shape=(d, d)),
                   **kwargs)

    def __setattr__(self, name, value):
        raise AttributeError("TwoModeState is immutable")

    @property
    def dimension(self) -> int:
        return self.cutoffs.dimension

    @property
    def trace(self) -> float:
        return _trace(self.csr)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense (d, d) copy of the stored entries."""
        dense = self.csr.toarray()
        dense.setflags(write=False)
        return dense

    def populations(self) -> np.ndarray:
        """Diagonal occupation probabilities as a real (da, db) array."""
        c = self.cutoffs
        return self.csr.diagonal().real.reshape(c.cutoff_a, c.cutoff_b)

    def hermiticity_error(self) -> float:
        """max |M - M^dag| over the stored entries."""
        if self._hermiticity_error is None:
            object.__setattr__(self, "_hermiticity_error", _hermiticity_error(self.csr))
        return self._hermiticity_error


def _trace(csr) -> float:
    # summed in complex128: numpy's float64 pairwise sum groups the terms
    # differently and moves the 12th printed digit of trace_deficit, which
    # the golden sweep pins byte for byte
    return float(csr.diagonal().astype(np.complex128).sum().real)


def _hermiticity_error(csr) -> float:
    diff = csr - csr.conj().T
    return float(abs(diff).max()) if diff.nnz else 0.0


def to_sectors(state: TwoModeState):
    """(k_a, k_b, x): the phase sectors holding a stored entry of ``state``,
    together with their mirrors (-k_a, -k_b), in increasing (k_a, k_b)
    order, and their entries stacked as x[s, j_a, j_b].

    Sector (k_a, k_b) holds the entries rho[n, m, p, q] with n - p = k_a and
    m - q = k_b, at j_a = min(n, p) and j_b = min(m, q); only
    j_a < cutoff_a - |k_a| and j_b < cutoff_b - |k_b| exist, and the padding
    beyond is zero.  Mirroring a sector reverses its place in the order, so
    the sector paired with s by Hermitian conjugation is S - 1 - s.
    """
    da, db = state.cutoffs.cutoff_a, state.cutoffs.cutoff_b
    coo = state.csr.tocoo()
    n, m = np.divmod(coo.row, db)
    p, q = np.divmod(coo.col, db)
    # (k_a, k_b) -> code is increasing, and code(-k_a, -k_b) = n_codes - 1 - code
    width = 2 * db - 1
    n_codes = (2 * da - 1) * width
    codes = (n - p + da - 1) * width + (m - q + db - 1)
    sectors = np.union1d(codes, n_codes - 1 - codes)
    x = np.zeros((sectors.size, da, db), dtype=state.csr.dtype)
    x[np.searchsorted(sectors, codes), np.minimum(n, p), np.minimum(m, q)] = coo.data
    k_a, k_b = np.divmod(sectors, width)
    return k_a - (da - 1), k_b - (db - 1), x


def from_sectors(cutoffs: ModeCutoffs, k_a, k_b, x, **kwargs) -> TwoModeState:
    """Inverse of to_sectors: the state whose stored entries are the nonzero
    entries of x (the padding past a sector's end is zero)."""
    da, db = cutoffs.cutoff_a, cutoffs.cutoff_b
    s, j_a, j_b = np.nonzero(x)
    ka, kb = k_a[s], k_b[s]
    n, p = j_a + np.maximum(ka, 0), j_a + np.maximum(-ka, 0)
    m, q = j_b + np.maximum(kb, 0), j_b + np.maximum(-kb, 0)
    return TwoModeState.from_entries(cutoffs, n * db + m, p * db + q, x[s, j_a, j_b],
                                     **kwargs)


def build_noon(spec: NoonSpec, cutoffs: ModeCutoffs) -> TwoModeState:
    """Pure-state density matrix of (|N,0> + |0,N>)/sqrt(2).

    The support is finite, so the trace is exactly 1 for any admissible
    cutoffs; exactly four entries are populated, each with value 1/2.
    """
    n = spec.n_photons
    if cutoffs.cutoff_a <= n or cutoffs.cutoff_b <= n:
        raise ValueError(
            f"cutoffs {cutoffs.cutoff_a}x{cutoffs.cutoff_b} cannot hold N={n}; "
            f"need both > {n}"
        )
    i = cutoffs.flat_index(n, 0)
    j = cutoffs.flat_index(0, n)
    return TwoModeState.from_entries(cutoffs, [i, i, j, j], [i, j, i, j], [0.5] * 4)


def product_state(mat_a: np.ndarray, mat_b: np.ndarray) -> TwoModeState:
    """Tensor product rho_a (x) rho_b in the flattened basis."""
    mat_a, mat_b = np.asarray(mat_a), np.asarray(mat_b)
    cutoffs = ModeCutoffs(mat_a.shape[0], mat_b.shape[0])
    return TwoModeState(cutoffs, np.kron(mat_a, mat_b))


def partial_transpose_b(state: TwoModeState) -> TwoModeState:
    """Transpose the mode-b indices: out[(n,m),(n',m')] = in[(n,m'),(n',m)].

    Hermiticity and the trace are preserved; entanglement shows up as
    negative eigenvalues of the result.  The stored entries are remapped,
    so the cost is O(nnz).
    """
    coo = state.csr.tocoo()
    rows, cols = pt_coordinates(coo.row, coo.col, state.cutoffs.cutoff_b)
    return TwoModeState.from_entries(state.cutoffs, rows, cols, coo.data, validate=False)


def pt_coordinates(rows: np.ndarray, cols: np.ndarray, cutoff_b: int):
    """Positions in the partial transpose of the entries at (rows, cols)."""
    db = cutoff_b
    return (rows // db) * db + cols % db, (cols // db) * db + rows % db


def trace_and_purity(state: TwoModeState) -> tuple[float, float]:
    """(Tr rho, Tr rho^2); the purity uses Hermiticity: Tr rho^2 = sum |rho_ij|^2."""
    data = state.csr.data
    return state.trace, float(np.vdot(data, data).real)


def trace_distance(state_1: TwoModeState, state_2: TwoModeState) -> float:
    """Half the trace norm of the difference (states must share cutoffs)."""
    if state_1.cutoffs != state_2.cutoffs:
        raise ValueError("states have different cutoffs")
    eigs = hermitian_eigvalsh(state_1.csr - state_2.csr, state_1.cutoffs)
    return 0.5 * float(np.abs(eigs).sum())


def hermitian_eigvalsh(csr, cutoffs: ModeCutoffs) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian (d, d) matrix stored in ``csr``.

    Phase-insensitive channels commute with phase rotations, so the
    matrices this package diagonalizes conserve a U(1) charge: each stored
    entry joins two basis states of equal n_a - n_b (the partial transpose
    of an amplified NOON state, the squeezed vacuum itself) or of equal
    n_a + n_b (an amplified NOON state itself, the partial transpose of
    the squeezed vacuum).  Such a matrix is block diagonal in the charge
    and its spectrum is the union of the blocks' spectra.  The test is exact
    over the integers and reads each stored entry once.  Every basis state
    of a charge, rows without a stored entry included, joins its block, and
    each block is solved densely.  A matrix that conserves neither charge is
    solved whole, up to ``config.FULL_SOLVE_MAX_DIMENSION``.
    """
    d = cutoffs.dimension
    coo = csr.tocoo()
    coo.sum_duplicates()  # the scatter below writes each position once
    n_a, n_b = np.divmod(np.arange(d), cutoffs.cutoff_b)
    for charge in (n_a - n_b, n_a + n_b):
        if np.array_equal(charge[coo.row], charge[coo.col]):
            break
    else:
        if d > config.FULL_SOLVE_MAX_DIMENSION:
            raise ValueError(
                f"matrix of dimension {d} conserves neither n_a - n_b nor n_a + n_b; "
                f"a full eigensolve is limited to {config.FULL_SOLVE_MAX_DIMENSION}")
        return np.linalg.eigvalsh(csr.toarray())

    # block k holds the basis states of the k-th smallest charge in index
    # order; an entry's block is its row's, its place the rank within it
    charge = charge - charge.min()
    sizes = np.bincount(charge)
    starts = np.cumsum(sizes) - sizes
    place = np.empty(d, dtype=np.intp)
    place[np.argsort(charge, kind="stable")] = np.arange(d) - np.repeat(starts, sizes)
    order = np.argsort(charge[coo.row], kind="stable")
    rows, cols, vals = place[coo.row[order]], place[coo.col[order]], coo.data[order]
    bounds = np.searchsorted(charge[coo.row[order]], np.arange(sizes.size + 1))

    eigs = []
    for k, size in enumerate(sizes.tolist()):
        lo, hi = bounds[k], bounds[k + 1]
        if lo == hi:
            eigs.append(np.zeros(size))
            continue
        block = np.zeros((size, size), dtype=vals.dtype)
        block[rows[lo:hi], cols[lo:hi]] = vals[lo:hi]
        eigs.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(eigs))
