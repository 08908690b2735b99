"""Truncated two-mode Fock-space states and structural operations.

Basis convention: the flattened index of the pair |n_a, n_b> is
``n_a * cutoff_b + n_b`` (row-major in the mode-a label).  A density
matrix rho[n, m, p, q] = <n, m| rho |p, q> is stored by phase sector: the
entries with n - p = k_a and m - q = k_b form sector (k_a, k_b), held as a
(cutoff_a, cutoff_b) slice x[s] at positions j_a = min(n, p) and
j_b = min(m, q).  Only j_a < cutoff_a - |k_a| and j_b < cutoff_b - |k_b|
exist; the padding beyond is zero.  Hermiticity makes sector
(-k_a, -k_b) the complex conjugate of sector (k_a, k_b), position by
position, so a state stores only sector (0, 0) and the nonzero sectors
above it in increasing (k_a, k_b) order (k_a > 0, or k_a = 0 and
k_b > 0), sector (0, 0) always first, as ``x[0]``, even when it is zero.
Each of those stands for itself and its conjugate mirror, so a stored
state is Hermitian by construction; only its diagonal, ``x[0]``, could
carry an imaginary part, which construction checks and then drops, so
``x[0]`` is always stored real.

The phase-insensitive amplifier maps every sector to itself, so the
package's states stay in few sectors: a NOON input and everything made
from it hold exactly (0, 0) and (N, -N).  Everything reads the stack
directly: trace and populations are ``x[0]``, the partial transpose
relabels k_b -> -k_b, the channel and the integrator act sector by sector.
The entries are real (float64) for every state the package builds and
complex128 only for genuinely complex input.  The dense eigensolves behind
the dense negativity and the trace distance (``hermitian_eigvalsh``) take
the entries, mirrors included, as (row, col, value) triplets and solve one
conserved-charge block at a time.  A dense (d, d) copy is made only for a
matrix that conserves no charge and by ``TwoModeState.matrix``, which no
package code reads.  States are immutable after construction; every
operation here is a pure function.
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
        object.__setattr__(self, "cutoff_a", int(_integers(self.cutoff_a, "cutoffs")))
        object.__setattr__(self, "cutoff_b", int(_integers(self.cutoff_b, "cutoffs")))
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
        object.__setattr__(self, "n_photons", int(_integers(self.n_photons, "n_photons")))
        if self.n_photons < 1:
            raise ValueError("n_photons must be >= 1")


class TwoModeState:
    """Density matrix of a truncated two-mode state, stored by phase sector.

    ``x[s]`` holds sector (``k_a[s]``, ``k_b[s]``) as the module docstring
    lays out: sector (0, 0) and the sectors above it, each standing for
    itself and its conjugate mirror.  Sector (0, 0) is always ``x[0]``,
    prepended as zeros to a stack that lacks it; every other zero sector is
    dropped.  The entries are float64 unless an imaginary part is nonzero,
    in which case they are complex128.  ``matrix`` builds a read-only dense
    copy for consumers that need one and ``entries`` lists the nonzero
    entries, mirrors included, as triplets.

    Construction checks the diagonal (real and non-negative) and a trace
    of at most 1; ``validate=False`` skips these checks.  Either way the
    labels must be integers, every stored entry must be finite, and the
    diagonal's imaginary part is dropped, so sector (0, 0) is stored real.
    Outside input, which may not be Hermitian, comes in through
    ``from_entries``.
    ``trace_deficit`` records 1 - Tr(rho): states built by truncating an
    infinite sum are never renormalized, the missing tail is carried
    explicitly so downstream tolerances can budget for it.
    """

    __slots__ = ("cutoffs", "k_a", "k_b", "x", "trace_deficit")

    def __init__(self, cutoffs: ModeCutoffs, k_a, k_b, x, validate: bool = True):
        da, db = cutoffs.cutoff_a, cutoffs.cutoff_b
        k_a = _integers(k_a, "sector labels")
        k_b = _integers(k_b, "sector labels")
        x = np.asarray(x)
        if k_a.ndim != 1 or k_b.shape != k_a.shape or x.shape != (k_a.size, da, db):
            raise ValueError(f"sector stack of shape {x.shape} does not match "
                             f"{k_a.size} sectors at cutoffs {da}x{db}")
        labels = list(zip(k_a.tolist(), k_b.tolist()))
        if (labels != sorted(set(labels)) or min(labels, default=(0, 0)) < (0, 0)
                or any(abs(ka) >= da or abs(kb) >= db for ka, kb in labels)):
            raise ValueError("sectors must be distinct, in increasing (k_a, k_b) order "
                             "and none below (0, 0)")
        # each sector's padding: its last |k_a| rows and its last |k_b| columns
        for x_s, (ka, kb) in zip(x, labels):
            if x_s[da - abs(ka):].any() or x_s[:, db - abs(kb):].any():
                raise ValueError("sector entries past the cutoffs must be zero")
        if labels[:1] != [(0, 0)]:   # sector (0, 0) is always x[0]
            k_a, k_b = np.append(0, k_a), np.append(0, k_b)
            x = np.concatenate([np.zeros((1, da, db), dtype=x.dtype), x])
        if np.iscomplexobj(x):
            diag_imag = float(np.abs(x[0].imag).max())
            if validate and not diag_imag <= config.ATOL_STRUCTURAL:
                raise ValueError("diagonal has imaginary parts beyond tolerance")
            x = x.copy()
            x[0] = x[0].real   # the diagonal is stored real
            if not np.any(x.imag):
                x = x.real
        keep = np.any(x, axis=(1, 2))
        keep[0] = True
        # boolean indexing copies; the cast then copies only a foreign dtype
        x = x[keep].astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)
        k_a, k_b = k_a[keep], k_b[keep]
        if not np.isfinite(x).all():
            raise ValueError("entries must be finite, not NaN or inf")
        trace = _trace(x)
        if validate:
            if float(x[0].real.min()) < -config.ATOL_STRUCTURAL:
                raise ValueError("diagonal has negative entries beyond tolerance")
            if trace > 1.0 + 1e-9:
                raise ValueError(f"trace {trace} exceeds 1; not a truncated density matrix")
        for arr in (k_a, k_b, x):
            arr.setflags(write=False)
        object.__setattr__(self, "cutoffs", cutoffs)
        object.__setattr__(self, "k_a", k_a)
        object.__setattr__(self, "k_b", k_b)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "trace_deficit", max(0.0, 1.0 - trace))

    @classmethod
    def from_entries(cls, cutoffs: ModeCutoffs, rows, cols, values,
                     validate: bool = True) -> "TwoModeState":
        """State from COO triplets over the flattened basis; repeated
        (row, col) pairs are summed.  The matrix must be Hermitian within
        ``config.ATOL_STRUCTURAL`` and every value finite, whatever
        ``validate`` says; the sectors below (0, 0) are then dropped."""
        da, db = cutoffs.cutoff_a, cutoffs.cutoff_b
        rows = _integers(rows, "entry indices")
        cols = _integers(cols, "entry indices")
        values = np.asarray(values)
        if not np.isfinite(values).all():
            raise ValueError("entries must be finite")
        if rows.size and not (0 <= min(rows.min(), cols.min())
                              and max(rows.max(), cols.max()) < cutoffs.dimension):
            raise ValueError(f"entry outside the {cutoffs.dimension}-dimensional basis")
        n, m = np.divmod(rows, db)
        p, q = np.divmod(cols, db)
        # (k_a, k_b) -> code is increasing, and code(-k_a, -k_b) = n_codes - 1 - code
        width = 2 * db - 1
        n_codes = (2 * da - 1) * width
        codes = (n - p + da - 1) * width + (m - q + db - 1)
        sectors = np.union1d(codes, n_codes - 1 - codes)
        x = np.zeros((sectors.size, da, db), dtype=np.result_type(values, np.float64))
        np.add.at(x, (np.searchsorted(sectors, codes), np.minimum(n, p), np.minimum(m, q)),
                  values)
        err = _hermiticity_error(x)
        if err > config.ATOL_STRUCTURAL:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {err:.3e}")
        upper = sectors >= n_codes // 2   # (0, 0) and the sectors above it
        k_a, k_b = np.divmod(sectors[upper], width)
        return cls(cutoffs, k_a - (da - 1), k_b - (db - 1), x[upper], validate=validate)

    def __setattr__(self, name, value):
        raise AttributeError("TwoModeState is immutable")

    @property
    def dimension(self) -> int:
        return self.cutoffs.dimension

    @property
    def trace(self) -> float:
        return _trace(self.x)

    def entries(self):
        """(rows, cols, values): the nonzero entries over the flattened
        basis in storage order, each stored sector's mirror after them; no
        position appears twice."""
        s, j_a, j_b = np.nonzero(self.x)
        ka, kb = self.k_a[s], self.k_b[s]
        db = self.cutoffs.cutoff_b
        rows = (j_a + np.maximum(ka, 0)) * db + j_b + np.maximum(kb, 0)
        cols = (j_a + np.maximum(-ka, 0)) * db + j_b + np.maximum(-kb, 0)
        values = self.x[s, j_a, j_b]
        off = s > 0   # the mirror sits at the transposed position
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        return rows, cols, np.concatenate([values, values[off].conj()])

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense (d, d) copy of the density matrix."""
        rows, cols, values = self.entries()
        dense = np.zeros((self.dimension, self.dimension), dtype=self.x.dtype)
        dense[rows, cols] = values
        dense.setflags(write=False)
        return dense

    def populations(self) -> np.ndarray:
        """Diagonal occupation probabilities as a real (da, db) array."""
        return self.x[0].real.copy()


def _hermiticity_error(x) -> float:
    """max |M - M^dag| of a full sector stack in increasing code order, where
    the mirror of sector s is sector S - 1 - s."""
    return float(np.abs(x - x[::-1].conj()).max(initial=0.0))


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64; ValueError unless every value is an integer,
    whatever its numeric dtype."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return values.astype(np.int64, copy=False)
    if values.dtype.kind == "f":
        # NaN, inf and values past int64 cast to some integer they differ from
        with np.errstate(invalid="ignore"):
            ints = values.astype(np.int64)
        if np.array_equal(ints, values):
            return ints
    raise ValueError(f"{what} must be integers")


def _trace(x) -> float:
    # all d diagonal entries in flat-index order, summed in complex128:
    # numpy's float64 pairwise sum groups the terms differently and moves
    # the 12th printed digit of trace_deficit, which the golden sweep pins
    # byte for byte
    return float(x[0].ravel().astype(np.complex128).sum().real)


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0 .. n - 1, the table behind every factorial ratio
    and coherent coefficient the package assembles in log space."""
    return np.fromiter(map(math.lgamma, range(1, n + 1)), np.float64, n)


def noon_sectors(cutoffs: ModeCutoffs, n_photons: int, sectors) -> TwoModeState:
    """The state holding sector (0, 0) = ``sectors[0]``, the diagonal, and
    sector (N, -N) = ``sectors[1]``, the coupling: rho[n+N, m, n, m+N] =
    sectors[1][n, m], and its mirror (-N, N) the conjugate.  Every
    NOON-derived state has this form."""
    return TwoModeState(cutoffs, [0, n_photons], [0, -n_photons], sectors)


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
    sectors = np.zeros((2, cutoffs.cutoff_a, cutoffs.cutoff_b))
    sectors[0, n, 0] = sectors[0, 0, n] = sectors[1, 0, 0] = 0.5
    return noon_sectors(cutoffs, n, sectors)


def partial_transpose_b(state: TwoModeState) -> TwoModeState:
    """Transpose the mode-b indices: out[(n,m),(n',m')] = in[(n,m'),(n',m)].

    Hermiticity and the trace are preserved; entanglement shows up as
    negative eigenvalues of the result.  The transpose swaps m and q, so
    every sector (k_a, k_b) becomes (k_a, -k_b) with its entries in place.
    For k_a = 0 that label lies below (0, 0), so the sector keeps its label
    and conjugates its entries: it holds the mirror instead.
    """
    flip = state.k_a > 0
    k_b = np.where(flip, -state.k_b, state.k_b)
    x = np.where(flip[:, None, None], state.x, state.x.conj())
    order = np.lexsort((k_b, state.k_a))
    return TwoModeState(state.cutoffs, state.k_a[order], k_b[order], x[order], validate=False)


def trace_distance(state_1: TwoModeState, state_2: TwoModeState) -> float:
    """Half the trace norm of the difference (states must share cutoffs)."""
    if state_1.cutoffs != state_2.cutoffs:
        raise ValueError("states have different cutoffs")
    (r1, c1, v1), (r2, c2, v2) = state_1.entries(), state_2.entries()
    eigs = hermitian_eigvalsh(np.concatenate([r1, r2]), np.concatenate([c1, c2]),
                              np.concatenate([v1, -v2]), state_1.cutoffs)
    return 0.5 * float(np.abs(eigs).sum())


def hermitian_eigvalsh(rows, cols, values, cutoffs: ModeCutoffs) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian (d, d) matrix with the entries
    ``values`` at (``rows``, ``cols``); repeated positions are summed.

    Phase-insensitive channels commute with phase rotations, so the
    matrices this package diagonalizes conserve a U(1) charge: each stored
    entry joins two basis states of equal n_a - n_b (the partial transpose
    of an amplified NOON state, the squeezed vacuum itself) or of equal
    n_a + n_b (an amplified NOON state itself, the partial transpose of
    the squeezed vacuum).  Such a matrix is block diagonal in the charge
    and its spectrum is the union of the blocks' spectra.  The test is exact
    over the integers and reads each entry once.  Every basis state
    of a charge, rows without a stored entry included, joins its block,
    and a block is a run of flat indices: the states with n_a - n_b = c sit
    at n_a (cutoff_b + 1) - c, those with n_a + n_b = c at
    n_a (cutoff_b - 1) + c.  So a state's rank in its block has a closed
    form, min(n_a, n_b) for the first charge and
    min(n_a, cutoff_b - 1 - n_b) for the second, and no sort is needed.
    The entries are grouped by block size in one stable pass; the blocks
    of one size that hold a stored entry are summed by one scatter in input
    order and solved densely by one stacked ``np.linalg.eigvalsh`` call,
    which runs the same LAPACK routine on each block as a solve of that
    block alone; a block with no stored entry is not solved and keeps its
    exact zero eigenvalues.  A matrix that conserves neither charge is one
    block (rank = index), refused above ``config.FULL_SOLVE_MAX_DIMENSION``
    before it is allocated.
    """
    d = cutoffs.dimension
    index = np.arange(d)
    n_a, n_b = np.divmod(index, cutoffs.cutoff_b)
    m_b = cutoffs.cutoff_b - 1 - n_b
    # each charge (n_a - n_b shifted to start at 0, then n_a + n_b) with
    # every state's rank in its block, which is its rank in index order; a
    # matrix that conserves neither is one block of charge 0
    for charge, rank in ((n_a + m_b, np.minimum(n_a, n_b)), (n_a + n_b, np.minimum(n_a, m_b)),
                         (0 * index, index)):
        if np.array_equal(charge[rows], charge[cols]):
            break
    sizes = np.bincount(charge)
    block = charge[rows]
    filled = np.bincount(block, minlength=sizes.size) > 0
    if sizes.max(where=filled, initial=0) > config.FULL_SOLVE_MAX_DIMENSION:
        raise ValueError(
            f"matrix of dimension {d} conserves neither n_a - n_b nor n_a + n_b; "
            f"a full eigensolve is limited to {config.FULL_SOLVE_MAX_DIMENSION}")

    # the entries grouped by block size, in input order within a size; run
    # holds one size's filled blocks in charge order, so repeated positions
    # are summed in the order one scatter per block sums them
    entry_size = sizes[block]
    grouped = np.argsort(entry_size, kind="stable")
    ends = np.cumsum(np.bincount(entry_size))
    solved = [np.zeros(d - sizes[filled].sum())]
    for size in np.flatnonzero(np.bincount(sizes[filled])).tolist():
        run = np.flatnonzero(filled & (sizes == size))
        at = grouped[ends[size - 1]:ends[size]]
        stack = np.zeros((run.size, size, size), dtype=values.dtype)
        np.add.at(stack, (np.searchsorted(run, block[at]), rank[rows[at]], rank[cols[at]]),
                  values[at])
        solved.append(np.linalg.eigvalsh(stack).ravel())
    return np.sort(np.concatenate(solved))
