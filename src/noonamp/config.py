"""Central numeric tolerances and size limits.

Every structural check in the package defaults to these values; individual
operations accept keyword overrides so tests can tighten or relax a single
check without touching global state.
"""

# Elementwise Hermiticity / trace bookkeeping.
ATOL_STRUCTURAL = 1e-12

# Spectral assertions (eigenvalue locations of exactly-known states).
ATOL_SPECTRAL = 1e-10

# Eigenvalues of a partial transpose in [-EIG_NEG_CLAMP, 0) count as zero.
EIG_NEG_CLAMP = 1e-12

# Truncation is allowed to push constructed-state eigenvalues this far
# below zero before it is treated as an error.
ATOL_POSITIVITY = 1e-9

# Hard cap on cutoff_a * cutoff_b; keeps dense eigensolves tractable.
MAX_TOTAL_DIMENSION = 250_000

# Default neglected-weight budget when choosing Fock cutoffs automatically.
DEFAULT_TAIL_TOL = 1e-10

# Largest partial-transpose block the structure-exploiting negativity path
# will diagonalize before falling back to the dense solver.
BLOCK_SIZE_LIMIT = 512

# Husimi values in [-Q_CLAMP, 0) are clamped to zero; anything lower raises.
Q_CLAMP = 1e-14
