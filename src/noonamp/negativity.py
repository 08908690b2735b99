"""Logarithmic negativity from partial-transpose spectra.

Two routes to the same number.  The block route remaps the state's stored
entries to partial-transpose coordinates, finds the connected components
of that coupling graph with ``scipy.sparse.csgraph`` and diagonalizes every
one, whatever its size, in batches: the components of one size are
stacked and solved by a single ``np.linalg.eigvalsh`` call.  For amplified
NOON states the components are short chains (both modes amplified) or 2x2
blocks (one mode amplified), thousands of components in a few sizes.

The dense route is the oracle the block route must match.  It hands the
partial transpose to ``fock.hermitian_eigvalsh``, which solves it one
conserved-charge block at a time.  Phase-insensitive amplification commutes
with phase rotations, so the partial transpose of every state the package
builds conserves n_a - n_b (amplified NOON states) or n_a + n_b (states
built from the squeezed vacuum).  The matrix is then exactly block diagonal
in that charge, and the union of the blocks' spectra is its spectrum; a
matrix that conserves neither charge is solved whole.  The oracle stays
independent of the block route: it shares no code with it, and its blocks
come from a symmetry tested on the data, not from the sparsity graph.
Each charge block is a full dense block that holds every basis state of
its charge, so a coupling the block route missed would still show.

No dense solve on either route exceeds ``config.FULL_SOLVE_MAX_DIMENSION``:
a charge block holds at most min(cutoff_a, cutoff_b) basis states, and a
whole-matrix solve or a coupling component above the limit is refused with
ValueError before it is allocated.  Eigenvalues in
[-``config.EIG_NEG_CLAMP``, 0) count as zero, and a state must be Hermitian
within ``config.ATOL_STRUCTURAL``.
"""

from dataclasses import dataclass

import numpy as np

from . import config
from .fock import TwoModeState, hermitian_eigvalsh, partial_transpose_b, pt_coordinates


@dataclass(frozen=True)
class NegativityResult:
    """neg_sum is |sum of negative PT eigenvalues|; E_N = log2(2 neg_sum + 1)."""

    neg_sum: float
    log_negativity: float
    min_eigenvalue: float
    method: str
    block_count: int | None = None


def _result(eigs_min: float, neg_sum: float, method: str,
            block_count: int | None = None) -> NegativityResult:
    return NegativityResult(
        neg_sum=neg_sum,
        log_negativity=float(np.log2(2.0 * neg_sum + 1.0)),
        min_eigenvalue=eigs_min,
        method=method,
        block_count=block_count,
    )


def _neg_sum(eigs: np.ndarray) -> float:
    # eigenvalues in [-EIG_NEG_CLAMP, 0) are floating-point noise, not negativity
    neg = eigs[eigs < -config.EIG_NEG_CLAMP]
    return float(-neg.sum()) if neg.size else 0.0


def _neg_sums(eigs: np.ndarray) -> np.ndarray:
    """``_neg_sum`` of each row of ascending spectra, bit for bit."""
    # one negative is exact as it stands; the rows with more (the negatives
    # lead each row) are summed as _neg_sum sums them
    sums = np.where(eigs[:, 0] < -config.EIG_NEG_CLAMP, -eigs[:, 0], 0.0)
    for r in np.flatnonzero(eigs[:, 1:2] < -config.EIG_NEG_CLAMP):
        sums[r] = _neg_sum(eigs[r])
    return sums


def _check_hermitian(state: TwoModeState):
    err = state.hermiticity_error()
    if err > config.ATOL_STRUCTURAL:
        raise ValueError(f"state is not Hermitian within {config.ATOL_STRUCTURAL:g}: "
                         f"{err:.3e}")


def log_negativity_dense(state: TwoModeState) -> NegativityResult:
    """Full spectrum of the partial transpose, solved one conserved-charge
    block at a time (``fock.hermitian_eigvalsh``).

    Every eigenvalue of the d x d partial transpose is computed, zeros
    included; the blocks are dense and come from an exact charge test on
    the stored entries, not from the coupling graph the block route uses.
    """
    _check_hermitian(state)
    eigs = hermitian_eigvalsh(partial_transpose_b(state).csr, state.cutoffs)
    return _result(float(eigs[0]), _neg_sum(eigs), "dense")


def log_negativity_block(state: TwoModeState) -> NegativityResult:
    """Partial-transpose spectrum via its coupling-graph components.

    The partial transpose is never materialized: the stored entries of the
    state are remapped to PT coordinates and the connected components of the
    off-diagonal couplings are found with scipy's csgraph.  The components
    of each size are scattered into one (count, size, size) stack and
    solved by one ``np.linalg.eigvalsh`` call, which runs the same LAPACK
    routine on each matrix as a solve of that matrix alone; a 1x1 component
    is its diagonal entry.  Each component's negative sum is then added up
    in order of its smallest PT index, so the result is bit for bit that of
    one eigensolve per component.  A stack holds at most d x size entries.
    A component larger than ``config.FULL_SOLVE_MAX_DIMENSION`` is refused
    with ValueError before any block is allocated.
    """
    # imported at first use: at module level csgraph would add about 0.09 s
    # to every import of the package
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    _check_hermitian(state)

    d = state.dimension
    coo = state.csr.tocoo()
    pt_i, pt_j = pt_coordinates(coo.row, coo.col, state.cutoffs.cutoff_b)
    graph = sparse.coo_array((np.ones(pt_i.size, dtype=np.int8), (pt_i, pt_j)),
                             shape=(d, d))
    _, labels = connected_components(graph, directed=False)

    occupied = np.zeros(d, dtype=bool)
    occupied[pt_i] = occupied[pt_j] = True
    occupied = np.flatnonzero(occupied)  # PT rows with a stored entry, ascending
    # number the components in order of their smallest member
    _, first, comp = np.unique(labels[occupied], return_index=True, return_inverse=True)
    comp = np.argsort(np.argsort(first))[comp]
    sizes = np.bincount(comp)
    if sizes.max(initial=0) > config.FULL_SOLVE_MAX_DIMENSION:
        raise ValueError(
            f"partial-transpose component of size {sizes.max()} exceeds the "
            f"eigensolve limit {config.FULL_SOLVE_MAX_DIMENSION}")

    # every stored entry lands in the block of its PT row, at the positions
    # of its PT row and column among the block's members (ascending)
    members = occupied[np.argsort(comp, kind="stable")]
    local = np.empty(d, dtype=np.int64)
    local[members] = np.arange(members.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    node_comp = np.empty(d, dtype=np.int64)
    node_comp[occupied] = comp

    # the components of one size form one batch, stacked in component order:
    # a component's slot is its rank among the components of its size
    by_size = np.argsort(sizes, kind="stable")
    batch_sizes, starts, counts = np.unique(sizes[by_size], return_index=True,
                                            return_counts=True)
    slot = np.empty(sizes.size, dtype=np.int64)
    slot[by_size] = np.arange(sizes.size) - np.repeat(starts, counts)
    entry_comp = node_comp[pt_i]
    entry_sizes = sizes[entry_comp]
    order = np.argsort(entry_sizes, kind="stable")
    bounds = np.append(np.searchsorted(entry_sizes[order], batch_sizes), order.size)

    min_eig = 0.0 if occupied.size < d else np.inf  # empty rows contribute eigenvalue 0
    comp_neg = np.zeros(sizes.size)  # each component's neg_sum, in component order
    for k, (size, start, count) in enumerate(zip(batch_sizes.tolist(), starts, counts)):
        e = order[bounds[k]:bounds[k + 1]]
        stack = np.zeros((count, size, size), dtype=coo.data.dtype)
        stack[slot[entry_comp[e]], local[pt_i[e]], local[pt_j[e]]] = coo.data[e]
        if size == 1:
            eigs = stack[:, :, 0].real  # PT leaves the diagonal in place
        else:
            eigs = np.linalg.eigvalsh(stack)
        min_eig = min(min_eig, float(eigs[:, 0].min()))
        comp_neg[by_size[start:start + count]] = _neg_sums(eigs)

    # added in component order, as one solve per component adds them
    neg_sum = float(np.cumsum(comp_neg)[-1]) if comp_neg.size else 0.0
    if not np.isfinite(min_eig):
        min_eig = 0.0
    return _result(float(min_eig), neg_sum, "block", int(sizes.size))


def log_negativity(state: TwoModeState, method: str = "block") -> NegativityResult:
    """E_N by ``method``: "dense", "block", or "both", which solves both ways,
    raises RuntimeError if they disagree by more than 1e-9 and returns the
    dense result."""
    if method == "dense":
        return log_negativity_dense(state)
    if method == "block":
        return log_negativity_block(state)
    if method != "both":
        raise ValueError("method must be dense, block or both")
    dense = log_negativity_dense(state)
    gap = abs(dense.log_negativity - log_negativity_block(state).log_negativity)
    if gap > 1e-9:
        raise RuntimeError(f"dense/block negativity disagree by {gap:.3e}")
    return dense
