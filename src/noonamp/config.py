"""Central numeric tolerances and size limits.

The structural checks, the negativity and Husimi clamps and the two
dimension caps read these values directly and take no override.  One
default can be changed per call: ``channel.CutoffPolicy.tail_tol`` (the
``--tail-tol`` flag) replaces DEFAULT_TAIL_TOL.
"""

# Hermiticity of outside input (TwoModeState.from_entries) and the real,
# non-negative diagonal a constructed state must have.
ATOL_STRUCTURAL = 1e-12

# Eigenvalues of a partial transpose in [-EIG_NEG_CLAMP, 0) count as zero.
EIG_NEG_CLAMP = 1e-12

# Hard cap on cutoff_a * cutoff_b, so that automatic cutoff selection fails
# loudly instead of building an arbitrarily large state.  It does not bound a
# d x d allocation: states are stored by phase sector (d entries per
# sector) and charge-conserving matrices are diagonalized in blocks, while a
# full solve at this size would need 500 GB and is bounded by
# FULL_SOLVE_MAX_DIMENSION instead.
MAX_TOTAL_DIMENSION = 250_000

# Largest dense block the package diagonalizes: the whole matrix in
# fock.hermitian_eigvalsh (the dense negativity and the trace distance) when
# neither U(1) charge is conserved, or one partial-transpose chain in
# negativity.log_negativity_block.  One float64 d x d copy at this size is
# 0.8 GB.
FULL_SOLVE_MAX_DIMENSION = 10_000

# Default neglected-weight budget when choosing Fock cutoffs automatically.
DEFAULT_TAIL_TOL = 1e-10

# Husimi values in [-Q_CLAMP, 0) are clamped to zero; anything lower raises.
Q_CLAMP = 1e-14
