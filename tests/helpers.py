"""Helpers shared by the test modules."""

import numpy as np

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
