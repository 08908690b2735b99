"""Central numeric tolerances and size limits.

The structural checks, the negativity and Husimi clamps, the block-size
limit and automatic cutoff selection default to these values; the
operations that read a tolerance, clamp or limit accept a keyword override,
so a test can tighten or relax one check without touching global state.
The two dimension caps have no override.
"""

# Elementwise Hermiticity / trace bookkeeping.
ATOL_STRUCTURAL = 1e-12

# Eigenvalues of a partial transpose in [-EIG_NEG_CLAMP, 0) count as zero.
EIG_NEG_CLAMP = 1e-12

# Hard cap on cutoff_a * cutoff_b, so that automatic cutoff selection fails
# loudly instead of building an arbitrarily large state.  It does not bound a
# d x d allocation: states are stored sparse and charge-conserving matrices
# are diagonalized in blocks, while a full solve at this size would need
# 500 GB and is bounded by FULL_SOLVE_MAX_DIMENSION instead.
MAX_TOTAL_DIMENSION = 250_000

# Largest matrix that fock.hermitian_eigvalsh diagonalizes whole, which it
# does only when neither U(1) charge is conserved: one float64 d x d copy at
# this size is 0.8 GB.
FULL_SOLVE_MAX_DIMENSION = 10_000

# Default neglected-weight budget when choosing Fock cutoffs automatically.
DEFAULT_TAIL_TOL = 1e-10

# Largest partial-transpose block the structure-exploiting negativity path
# will diagonalize before falling back to the dense solver.
BLOCK_SIZE_LIMIT = 512

# Husimi values in [-Q_CLAMP, 0) are clamped to zero; anything lower raises.
Q_CLAMP = 1e-14
