"""Central numeric tolerances and size limits.

The structural checks, the negativity and Husimi clamps, the block-size
limit and automatic cutoff selection default to these values; the
operations that read a tolerance, clamp or limit accept a keyword override,
so a test can tighten or relax one check without touching global state.
The dimension cap has no override.
"""

# Elementwise Hermiticity / trace bookkeeping.
ATOL_STRUCTURAL = 1e-12

# Eigenvalues of a partial transpose in [-EIG_NEG_CLAMP, 0) count as zero.
EIG_NEG_CLAMP = 1e-12

# Hard cap on cutoff_a * cutoff_b; keeps dense eigensolves tractable.
MAX_TOTAL_DIMENSION = 250_000

# Default neglected-weight budget when choosing Fock cutoffs automatically.
DEFAULT_TAIL_TOL = 1e-10

# Largest partial-transpose block the structure-exploiting negativity path
# will diagonalize before falling back to the dense solver.
BLOCK_SIZE_LIMIT = 512

# Husimi values in [-Q_CLAMP, 0) are clamped to zero; anything lower raises.
Q_CLAMP = 1e-14
