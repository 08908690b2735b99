"""Truncated two-mode Fock-space states and structural operations.

Basis convention: the flattened index of the pair |n_a, n_b> is
``n_a * cutoff_b + n_b`` (row-major in the mode-a label).  A density
matrix is stored as its nonzero entries over that basis, in a
``scipy.sparse.csr_array``: the closed-form states fill a vanishing share
of the d^2 entries, so everything that needs only the nonzeros (trace,
populations, purity, partial transpose, the block negativity) runs in
O(nnz).  The entries are real (float64) for every state the package
builds and complex128 only for genuinely complex input.  Dense copies are
made on request for the dense eigensolve and the trace distance.  States
are immutable after construction; every operation here is a pure function.
"""

from dataclasses import dataclass
import math

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


@dataclass(frozen=True)
class ThermalSpec:
    """Bose-Einstein occupation written two ways.

    ``mean_photons`` is the mean occupation; ``beta_param`` the matching
    exponent of exp(-beta * n).  An amplified vacuum at intensity gain g2
    is thermal with mean g2 - 1 and beta = ln(g2 / (g2 - 1)).
    """

    mean_photons: float
    beta_param: float

    def __post_init__(self):
        if self.mean_photons < 0:
            raise ValueError("mean_photons must be >= 0")
        if not self.beta_param > 0:
            raise ValueError("beta_param must be > 0")
        implied = 1.0 / math.expm1(self.beta_param) if math.isfinite(self.beta_param) else 0.0
        if abs(implied - self.mean_photons) > 1e-12:
            raise ValueError(
                f"inconsistent thermal parameters: mean_photons={self.mean_photons}, "
                f"1/(e^beta - 1)={implied}"
            )

    @classmethod
    def from_gain(cls, g_squared: float) -> "ThermalSpec":
        if g_squared < 1.0:
            raise ValueError("g_squared must be >= 1")
        if g_squared == 1.0:
            return cls(mean_photons=0.0, beta_param=math.inf)
        return cls(mean_photons=g_squared - 1.0, beta_param=math.log(g_squared / (g_squared - 1.0)))


class TwoModeState:
    """Density matrix of a truncated two-mode state, stored sparse.

    The stored entries are a ``scipy.sparse.csr_array`` over the flattened
    basis with explicit zeros removed (``csr``).  They are float64 unless the
    input has a nonzero imaginary part, in which case they are complex128.
    ``matrix`` and ``tensor()`` build read-only dense copies for consumers
    that need one; everything that reads only the nonzeros uses ``csr``.

    Construction checks the stored entries: Hermiticity, a non-negative
    diagonal and a trace of at most 1.  ``trace_deficit`` records
    1 - Tr(rho): states built by truncating an infinite sum are never
    renormalized, the missing tail is carried explicitly so downstream
    tolerances can budget for it.
    """

    __slots__ = ("cutoffs", "csr", "trace_deficit")

    def __init__(self, cutoffs: ModeCutoffs, matrix, validate: bool = True,
                 atol: float | None = None):
        """``matrix`` is a dense (d, d) array or any scipy sparse array."""
        # scipy.sparse is imported at first use: at module level it would add
        # about 20 ms to importing the package, which commands without a
        # state (thresholds, the Gaussian family) pay for nothing
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

    def tensor(self) -> np.ndarray:
        """Read-only dense copy of shape (da, db, da, db)."""
        c = self.cutoffs
        return self.matrix.reshape(c.cutoff_a, c.cutoff_b, c.cutoff_a, c.cutoff_b)

    def populations(self) -> np.ndarray:
        """Diagonal occupation probabilities as a real (da, db) array."""
        c = self.cutoffs
        return self.csr.diagonal().real.reshape(c.cutoff_a, c.cutoff_b)

    def hermiticity_error(self) -> float:
        """max |M - M^dag| over the stored entries."""
        return _hermiticity_error(self.csr)


def _trace(csr) -> float:
    # summed in complex128: numpy's float64 pairwise sum groups the terms
    # differently and moves the 12th printed digit of trace_deficit, which
    # the golden sweep pins byte for byte
    return float(csr.diagonal().astype(np.complex128).sum().real)


def _hermiticity_error(csr) -> float:
    diff = csr - csr.conj().T
    return float(abs(diff).max()) if diff.nnz else 0.0


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
    eigs = np.linalg.eigvalsh((state_1.csr - state_2.csr).toarray())
    return 0.5 * float(np.abs(eigs).sum())
