"""Helpers shared by the test modules."""

import numpy as np

from noonamp import config
from noonamp.fock import ModeCutoffs, TwoModeState


def dense_tensor(state):
    """Read-only dense (da, db, da, db) copy of the density matrix."""
    c = state.cutoffs
    return state.matrix.reshape(c.cutoff_a, c.cutoff_b, c.cutoff_a, c.cutoff_b)


def same_state(state_1, state_2):
    """True iff the two states store the same sectors and entries, bit for bit."""
    return (state_1.cutoffs == state_2.cutoffs and state_1.x.dtype == state_2.x.dtype
            and np.array_equal(state_1.k_a, state_2.k_a)
            and np.array_equal(state_1.k_b, state_2.k_b)
            and np.array_equal(state_1.x, state_2.x))


def from_matrix(cutoffs, matrix, **kwargs):
    """State holding the nonzero entries of a dense (d, d) matrix."""
    matrix = np.asarray(matrix)
    if matrix.shape != (cutoffs.dimension, cutoffs.dimension):
        raise ValueError(f"matrix shape {matrix.shape} does not match dimension "
                         f"{cutoffs.dimension}")
    rows, cols = np.nonzero(matrix)
    return TwoModeState.from_entries(cutoffs, rows, cols, matrix[rows, cols], **kwargs)


def product_state(mat_a, mat_b):
    """Tensor product rho_a (x) rho_b in the flattened basis."""
    mat_a, mat_b = np.asarray(mat_a), np.asarray(mat_b)
    cutoffs = ModeCutoffs(mat_a.shape[0], mat_b.shape[0])
    return from_matrix(cutoffs, np.kron(mat_a, mat_b))


def trace_and_purity(state):
    """(Tr rho, Tr rho^2); the purity uses Hermiticity: Tr rho^2 = sum |rho_ij|^2,
    where every stored sector but (0, 0) counts twice, once for its mirror."""
    off = state.x[(state.k_a != 0) | (state.k_b != 0)]
    return state.trace, float(np.vdot(state.x, state.x).real + np.vdot(off, off).real)


def riemann_mass(grid, spacing_a, spacing_b):
    """Normalization diagnostic: h_a^2 h_b^2 sum Q -> 1 as the grid grows."""
    if grid.values is None:
        raise ValueError("grid has no evaluated values")
    return float(grid.values.sum() * spacing_a**2 * spacing_b**2)


def per_component_reference(state):
    """(neg_sum, min_eigenvalue, block_count) of the partial transpose, one
    eigensolve per coupling component in order of its smallest PT index."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    d, db = state.dimension, state.cutoffs.cutoff_b
    rows, cols, data = state.entries()
    # positions in the partial transpose of the entries at (rows, cols)
    pt_i, pt_j = (rows // db) * db + cols % db, (cols // db) * db + rows % db
    graph = sparse.coo_array((np.ones(pt_i.size, dtype=np.int8), (pt_i, pt_j)),
                             shape=(d, d))
    _, labels = connected_components(graph, directed=False)
    occupied = np.unique(np.concatenate([pt_i, pt_j]))
    _, first, comp = np.unique(labels[occupied], return_index=True, return_inverse=True)
    comp = np.argsort(np.argsort(first))[comp]
    sizes = np.bincount(comp)
    members = occupied[np.argsort(comp, kind="stable")]
    local = np.empty(d, dtype=np.int64)
    local[members] = np.arange(members.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    node_comp = np.empty(d, dtype=np.int64)
    node_comp[occupied] = comp
    order = np.argsort(node_comp[pt_i], kind="stable")
    bounds = np.searchsorted(node_comp[pt_i][order], np.arange(sizes.size + 1))
    loc_i, loc_j, vals = local[pt_i][order], local[pt_j][order], data[order]

    min_eig = 0.0 if occupied.size < d else np.inf
    neg_sum = 0.0
    for k, size in enumerate(sizes):
        lo, hi = bounds[k], bounds[k + 1]
        if size == 1:
            val = float(vals[lo].real)
            min_eig = min(min_eig, val)
            if val < -config.EIG_NEG_CLAMP:
                neg_sum += -val
            continue
        sub = np.zeros((size, size), dtype=vals.dtype)
        sub[loc_i[lo:hi], loc_j[lo:hi]] = vals[lo:hi]
        eigs = np.linalg.eigvalsh(sub)
        min_eig = min(min_eig, float(eigs[0]))
        neg = eigs[eigs < -config.EIG_NEG_CLAMP]
        neg_sum += float(-neg.sum()) if neg.size else 0.0
    if not np.isfinite(min_eig):
        min_eig = 0.0
    return neg_sum, float(min_eig), int(sizes.size)


def charges(cutoffs):
    """n_a - n_b, n_a + n_b and 0 of every basis state, in flat-index order;
    every matrix conserves the last."""
    n_a, n_b = np.divmod(np.arange(cutoffs.dimension), cutoffs.cutoff_b)
    return n_a - n_b, n_a + n_b, 0 * n_a


def charge_conserving_triplets(cutoffs, rng, is_complex):
    """Random Hermitian (rows, cols, values) that conserve n_a - n_b, or
    n_a + n_b, or in general neither, one of the three drawn at random.
    Some charges get no entry, positions repeat (drawn with replacement,
    and some entries listed twice), and the entries come in shuffled order."""
    charge = charges(cutoffs)[rng.integers(3)]
    levels = np.unique(charge)
    rows, cols = [], []
    for level in rng.choice(levels, size=rng.integers(1, levels.size + 1), replace=False):
        members = np.flatnonzero(charge == level)
        count = int(rng.integers(1, 2 * members.size + 1))
        rows.append(rng.choice(members, count))
        cols.append(rng.choice(members, count))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    values = rng.normal(size=rows.size)
    if is_complex:
        values = values + 1j * rng.normal(size=rows.size)
    again = rng.random(rows.size) < 0.2
    rows, cols, values = (np.concatenate([x, x[again]]) for x in (rows, cols, values))
    # each entry and its mirror, in shuffled order
    order = rng.permutation(2 * rows.size)
    return (np.concatenate([rows, cols])[order], np.concatenate([cols, rows])[order],
            np.concatenate([values, values.conj()])[order])


def per_block_eigvalsh(rows, cols, values, cutoffs):
    """Sorted spectrum of a Hermitian matrix, one dense block per charge
    (n_a - n_b if it is conserved, else n_a + n_b, else one block holding
    every state): each block is summed by its own ``np.add.at`` in input
    order and solved alone, and a block with no entry gives zeros."""
    charge = next(c for c in charges(cutoffs) if np.array_equal(c[rows], c[cols]))
    rank = np.empty(cutoffs.dimension, dtype=np.intp)
    eigs = []
    for level in np.unique(charge):
        members = np.flatnonzero(charge == level)
        at = np.flatnonzero(charge[rows] == level)
        if at.size == 0:
            eigs.append(np.zeros(members.size))
            continue
        rank[members] = np.arange(members.size)
        block = np.zeros((members.size, members.size), dtype=values.dtype)
        np.add.at(block, (rank[rows[at]], rank[cols[at]]), values[at])
        eigs.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(eigs))
