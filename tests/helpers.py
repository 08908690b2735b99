"""Helpers shared by the test modules."""


def dense_tensor(state):
    """Read-only dense (da, db, da, db) copy of the density matrix."""
    c = state.cutoffs
    return state.matrix.reshape(c.cutoff_a, c.cutoff_b, c.cutoff_a, c.cutoff_b)
