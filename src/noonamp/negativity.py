"""Logarithmic negativity from partial-transpose spectra.

Two routes to the same number: a dense Hermitian eigensolve of the full
partial transpose, and a block route that remaps the state's stored
entries to partial-transpose coordinates, finds the connected components
of that coupling graph with ``scipy.sparse.csgraph`` and diagonalizes each
one.  For amplified NOON states the components are short chains (both
modes amplified) or 2x2 blocks (one mode amplified), so the block route is
orders of magnitude cheaper; the dense route is the oracle it must match.
"""

from dataclasses import dataclass
import warnings

import numpy as np

from . import config
from .fock import TwoModeState, partial_transpose_b, pt_coordinates


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


def _neg_sum(eigs: np.ndarray, clamp: float) -> float:
    # eigenvalues in [-clamp, 0) are floating-point noise, not negativity
    neg = eigs[eigs < -clamp]
    return float(-neg.sum()) if neg.size else 0.0


def _check_hermitian(state: TwoModeState, atol: float):
    err = state.hermiticity_error()
    if err > atol:
        raise ValueError(f"state is not Hermitian within {atol:g}: {err:.3e}")


def log_negativity_dense(state: TwoModeState, clamp: float | None = None,
                         atol: float | None = None) -> NegativityResult:
    """Full eigendecomposition of the partial transpose."""
    clamp = config.EIG_NEG_CLAMP if clamp is None else clamp
    _check_hermitian(state, config.ATOL_STRUCTURAL if atol is None else atol)
    eigs = np.linalg.eigvalsh(partial_transpose_b(state).matrix)
    return _result(float(eigs[0]), _neg_sum(eigs, clamp), "dense")


def log_negativity_block(state: TwoModeState, clamp: float | None = None,
                         atol: float | None = None,
                         size_limit: int | None = None) -> NegativityResult:
    """Partial-transpose spectrum via its coupling-graph components.

    The partial transpose is never materialized: the stored entries of the
    state are remapped to PT coordinates, the connected components of the
    off-diagonal couplings are found with scipy's csgraph, and each
    component is diagonalized on its own, in order of its smallest PT index.
    A component larger than ``size_limit`` (states without the closed-form
    sparsity) triggers a dense fallback.
    """
    # imported at first use: at module level csgraph would add about 0.09 s
    # to every import of the package
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    clamp = config.EIG_NEG_CLAMP if clamp is None else clamp
    size_limit = config.BLOCK_SIZE_LIMIT if size_limit is None else size_limit
    _check_hermitian(state, config.ATOL_STRUCTURAL if atol is None else atol)

    d = state.dimension
    coo = state.csr.tocoo()
    pt_i, pt_j = pt_coordinates(coo.row, coo.col, state.cutoffs.cutoff_b)
    graph = sparse.coo_array((np.ones(pt_i.size, dtype=np.int8), (pt_i, pt_j)),
                             shape=(d, d))
    _, labels = connected_components(graph, directed=False)

    occupied = np.unique(np.concatenate([pt_i, pt_j]))  # PT rows with a stored entry
    # number the components in order of their smallest member
    _, first, comp = np.unique(labels[occupied], return_index=True, return_inverse=True)
    comp = np.argsort(np.argsort(first))[comp]
    sizes = np.bincount(comp)
    if sizes.max(initial=0) > size_limit:
        warnings.warn(
            f"partial-transpose component of size {sizes.max()} exceeds "
            f"{size_limit}; falling back to the dense eigensolver",
            RuntimeWarning,
        )
        return log_negativity_dense(state, clamp=clamp)

    # every stored entry lands in the block of its PT row, at the positions
    # of its PT row and column among the block's members (ascending)
    members = occupied[np.argsort(comp, kind="stable")]
    local = np.empty(d, dtype=np.int64)
    local[members] = np.arange(members.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    node_comp = np.empty(d, dtype=np.int64)
    node_comp[occupied] = comp
    order = np.argsort(node_comp[pt_i], kind="stable")
    bounds = np.searchsorted(node_comp[pt_i][order], np.arange(sizes.size + 1))
    loc_i, loc_j, vals = local[pt_i][order], local[pt_j][order], coo.data[order]

    min_eig = 0.0 if occupied.size < d else np.inf  # empty rows contribute eigenvalue 0
    neg_sum = 0.0
    for k, size in enumerate(sizes):
        lo, hi = bounds[k], bounds[k + 1]
        if size == 1:
            val = float(vals[lo].real)  # PT leaves the diagonal in place
            min_eig = min(min_eig, val)
            if val < -clamp:
                neg_sum += -val
            continue
        sub = np.zeros((size, size), dtype=vals.dtype)
        sub[loc_i[lo:hi], loc_j[lo:hi]] = vals[lo:hi]
        eigs = np.linalg.eigvalsh(sub)
        min_eig = min(min_eig, float(eigs[0]))
        neg_sum += _neg_sum(eigs, clamp)

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
