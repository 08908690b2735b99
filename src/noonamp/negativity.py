"""Logarithmic negativity from partial-transpose spectra.

Two routes to the same number.  The block route reads NOON-derived
states, which store the phase sectors (0, 0) and (N, -N) only (the
mirror (-N, N) is implied).  Their
partial transpose keeps sector (0, 0) on its diagonal and couples each
basis state to the one a step (N, N) away, so it is a direct sum of
tridiagonal chains: short chains when both modes are amplified, 2x2 blocks
when one is, thousands of chains in a few lengths.  Each chain is an
arithmetic run h, h + step, h + 2 step, ... of the PT index, so the route
keeps only its head h and its length, found by one walk down the
couplings (see ``log_negativity_block``), and solves the chains of each
length together.
It takes any state that stores at most one sector, ``x[1]``, besides
sector (0, 0), ``x[0]``, and refuses every other.

Most chains carry no negativity, and the block route solves only those
that may.  By Sylvester's law of inertia, the number of negative LDL^T
pivots of a tridiagonal T + s I is the number of eigenvalues of T below -s
(the Sturm count behind LAPACK's bisection; Demmel, Applied Numerical
Linear Algebra, SIAM 1997, section 5.3).  With s = EIG_NEG_CLAMP / 2, a
chain whose pivots are all positive has no eigenvalue below -s, so
``_neg_sums`` would give it exactly 0: the half-clamp margin, 5e-13, is far
larger than the rounding of the pivots and of LAPACK, about 1e-16 on
entries of magnitude at most 1.  Such a chain is not solved in the first
pass.  Each chain is solved at most once: the chains the first pass
skipped are solved only when the flagged chains yield no eigenvalue below
-EIG_NEG_CLAMP (or none is flagged), because the smallest eigenvalue,
which the result reports, may then lie in any chain; and the first pass
takes every chain when an entry exceeds 1 in magnitude.  Validation bounds
the diagonal by the trace, at most 1, but it does not test positivity, so
it bounds no coherence: a validated state can hold an off-diagonal entry
above 1.  Either way the result is bit for bit that of solving every chain.

The dense route is the oracle the block route must match.  It hands the
partial transpose to ``fock.hermitian_eigvalsh``, which solves it one
conserved-charge block at a time.  Phase-insensitive amplification commutes
with phase rotations, so the partial transpose of every state the package
builds conserves n_a - n_b (amplified NOON states) or n_a + n_b (states
built from the squeezed vacuum).  The matrix is then exactly block diagonal
in that charge, and the union of the blocks' spectra is its spectrum; a
matrix that conserves neither charge is solved whole.  The oracle stays
independent of the block route: it shares no code with it, and its blocks
come from a symmetry tested on the data, not from the sector structure.
Each charge block is a full dense block that holds every basis state of
its charge, so a coupling the block route missed would still show.

No dense solve on either route exceeds ``config.FULL_SOLVE_MAX_DIMENSION``:
a charge block holds at most min(cutoff_a, cutoff_b) basis states, and a
whole-matrix solve or a chain above the limit is refused with ValueError
before it is allocated.  Eigenvalues in [-``config.EIG_NEG_CLAMP``, 0)
count as zero.  A state is Hermitian by construction, so neither route
checks it.
"""

from dataclasses import dataclass

import numpy as np

from . import config
from .fock import TwoModeState, hermitian_eigvalsh, partial_transpose_b


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
    """``_neg_sum`` of each row of ascending spectra, bit for bit: the rows
    with k negatives, which lead each row, are summed over their first k."""
    counts = np.count_nonzero(eigs < -config.EIG_NEG_CLAMP, axis=1)
    sums = np.zeros(eigs.shape[0])
    for k in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        sums[counts == k] = -eigs[counts == k, :k].sum(axis=1)
    return sums


def log_negativity_dense(state: TwoModeState) -> NegativityResult:
    """Full spectrum of the partial transpose, solved one conserved-charge
    block at a time (``fock.hermitian_eigvalsh``).

    Every eigenvalue of the d x d partial transpose is computed, zeros
    included; the blocks are dense and come from an exact charge test on
    the stored entries, not from the chains the block route reads.
    """
    eigs = hermitian_eigvalsh(*partial_transpose_b(state).entries(), state.cutoffs)
    return _result(float(eigs[0]), _neg_sum(eigs), "dense")


def log_negativity_block(state: TwoModeState) -> NegativityResult:
    """Partial-transpose spectrum read as chains.

    The state must store at most one sector (k_a, k_b), ``x[1]``, besides
    sector (0, 0), ``x[0]``, as every NOON-derived state does; any other
    state is refused with ValueError (``log_negativity_dense`` takes it).
    The partial transpose is never materialized: its diagonal ``a`` is
    ``x[0]`` and its only couplings ``b[u] = PT[u + step, u]`` join each
    basis state u to the one a step (k_a, -k_b) away, so it is a direct sum
    of tridiagonal chains, split wherever a coupling is zero.

    A chain is its head, its smallest PT index, and its length: member i
    of the chain headed at h is PT index h + i step.  The heads are the
    occupied indices no coupling enters, in ascending order, which is the
    chain order.  One walk down the couplings from the heads (``_walk``)
    finds every chain's length and runs its LDL^T pivots together.  A chain
    longer than ``config.FULL_SOLVE_MAX_DIMENSION`` is refused with
    ValueError before any block is allocated.  The chains of one length to
    be solved (the module docstring says which) are read from ``a`` and
    ``b`` at h + i step into one (count, length, length) stack and solved
    by one ``np.linalg.eigvalsh`` call, which runs the same LAPACK routine
    on each matrix as a solve of that matrix alone; a 1x1 chain is its
    diagonal entry.  Each chain's negative sum is added up in chain order,
    so the result is bit for bit that of one eigensolve per chain.
    """
    k_a, k_b, x = state.k_a, state.k_b, state.x
    if x.shape[0] > 2:
        raise ValueError(
            f"the block route reads sector (0, 0) and one other sector, and this state "
            f"holds {x.shape[0]} phase sectors; use the dense route (log_negativity_dense)")

    da, db = state.cutoffs.cutoff_a, state.cutoffs.cutoff_b
    d = state.dimension
    a = state.populations().ravel()
    # a stored -0.0 is solved as 0.0, as the dense route reads it: LAPACK's
    # eigenvalues depend on the sign of a zero diagonal entry
    a += 0.0
    # chain step (ka, -kb) in the labels, step = ka cutoff_b - kb > 0 in the PT index
    b = np.zeros(d, dtype=x.dtype)
    step = 1
    if x.shape[0] == 2:   # sector (0, 0) is x[0], the coupling x[1]
        ka, kb, sector = int(k_a[1]), int(k_b[1]), x[1]
        step = ka * db - kb
        if step < 0:   # ka = 0: the chain steps along the mirror (0, -kb)
            kb, step, sector = -kb, -step, sector.conj()
        ja, jb = np.arange(da - abs(ka)), np.arange(db - abs(kb))
        u = (ja[:, None] * db + (jb + max(kb, 0))[None, :]).ravel()   # stored ka >= 0
        b[u] = sector[:ja.size, :jb.size].ravel()
    linked = b != 0   # u coupled to u + step
    entered = np.zeros(d, dtype=bool)
    entered[step:] = linked[:d - step]
    heads = np.flatnonzero(((a != 0) | linked) & ~entered)

    # past 1 the pivots leave their rounding margin and every chain is
    # solved; zero couplings then keep the walk's unused pivots finite
    big = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)) > 1.0
    lengths, flagged = _walk(heads, linked, a, np.zeros(d) if big else np.abs(b) ** 2, step)
    if lengths.max(initial=0) > config.FULL_SOLVE_MAX_DIMENSION:
        raise ValueError(
            f"partial-transpose component of size {lengths.max()} exceeds the "
            f"eigensolve limit {config.FULL_SOLVE_MAX_DIMENSION}")

    todo = flagged | big
    neg = np.zeros(heads.size)   # each chain's neg_sum, in chain order
    chains = (heads, lengths, step, a, b)
    min_eig = _solve_chains(todo, neg, *chains)
    if not min_eig < -config.EIG_NEG_CLAMP:
        # no negativity, and min_eigenvalue may lie in any chain
        min_eig = min(min_eig, _solve_chains(~todo, neg, *chains))
    if lengths.sum() < d:
        min_eig = min(0.0, min_eig)   # empty rows contribute eigenvalue 0

    # added in chain order, as one solve per chain adds them
    neg_sum = float(np.cumsum(neg)[-1]) if neg.size else 0.0
    if not np.isfinite(min_eig):
        min_eig = 0.0
    return _result(float(min_eig), neg_sum, "block", int(heads.size))


def _walk(heads, linked, a, b2, step):
    """(lengths, flagged) of the chains headed at ``heads``: each chain's
    length, and whether its T + shift I has a non-positive LDL^T pivot, for
    shift = ``config.EIG_NEG_CLAMP`` / 2.  ``b2`` is |b|^2.

    Each step of the walk moves every live chain one member on and runs
    the pivot recurrence p_i = a_i + shift - |b_{i-1}|^2 / p_{i-1}; a chain
    ends where its coupling is zero, so only live chains are held and the
    walk takes O(d) memory.  A zero pivot is replaced by -shift, which has
    already flagged its chain and keeps the next step finite.
    """
    shift = 0.5 * config.EIG_NEG_CLAMP
    lengths = np.empty(heads.size, dtype=np.int64)
    flagged = np.zeros(heads.size, dtype=bool)
    live, at = np.arange(heads.size), heads
    pivot = a[at] + shift
    rank = 1
    while live.size:
        flagged[live[pivot <= 0]] = True
        on = linked[at]
        lengths[live[~on]] = rank
        live, at, prev = live[on], at[on], pivot[on]
        pivot = a[at + step] + shift - b2[at] / np.where(prev == 0, -shift, prev)
        at = at + step
        rank += 1
    return lengths, flagged


def _solve_chains(todo, neg, heads, lengths, step, a, b) -> float:
    """Solve the chains marked in ``todo``, one stack per chain length, and
    store each one's negative sum in ``neg``; returns their smallest
    eigenvalue (inf if none)."""
    min_eig = np.inf
    marked = np.flatnonzero(todo)
    sizes = lengths[marked]
    for size in set(sizes.tolist()):
        sel = marked[sizes == size]
        at = heads[sel][:, None] + step * np.arange(size)   # (count, size) PT indices
        if size == 1:
            eigs = a[at]
        else:
            r = np.arange(size)
            stack = np.zeros((sel.size, size, size), dtype=b.dtype)
            stack[:, r, r] = a[at]
            stack[:, r[1:], r[:-1]] = b[at[:, :-1]]
            stack[:, r[:-1], r[1:]] = b[at[:, :-1]].conj()
            eigs = np.linalg.eigvalsh(stack)
        min_eig = min(min_eig, float(eigs[:, 0].min()))
        neg[sel] = _neg_sums(eigs)
    return min_eig


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
