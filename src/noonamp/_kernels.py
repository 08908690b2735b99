"""The single-mode gain/loss generator of the amplifier master equation,
built as one tridiagonal matrix per phase offset: the one definition of the
truncated generator.

Generator convention, per amplified mode (kn1 = kappa*N1, kn2 = kappa*N2):

    d rho = kn1 (2 adag rho a - a adag rho - rho a adag)
          + kn2 (2 a rho adag - adag a rho - rho adag a)

On the entries rho[n, m, p, q] it moves weight only along (n, p) ->
(n+1, p+1) and (n-1, p-1) for mode a, and along (m, q) -> (m+1, q+1) and
(m-1, q-1) for mode b.  The phase offsets k_a = n - p and k_b = m - q are
therefore conserved: each sector of fixed (k_a, k_b) evolves on its own,
and a sector empty at t = 0 stays exactly zero.  The sectors are stacked
as x[s, j_a, j_b], where j_a = min(n, p) and j_b = min(m, q) are the
positions along each sector's diagonal.  In a sector of offset k only
j < dim - |k| exist; the generator's rows and columns beyond are zero, so
the padding stays zero.  Creation out of the top retained Fock level is
dropped; the integrator's leak monitor watches the resulting trace loss.

The coefficients depend on k only through |k|, so ``gen_mode_a`` and
``gen_mode_b`` take the distinct |k| and return one generator matrix L
each: mode a acts on a sector as x_s -> L x_s, mode b as x_s -> x_s L^T.
"""

import numpy as np

# kernel implementation tag, carried in the benchmark's environment stamp
BACKEND = "numpy"


def _generators(k_abs: np.ndarray, dim: int, kn1: float, kn2: float) -> np.ndarray:
    """One (dim, dim) tridiagonal L per offset in ``k_abs``, at positions
    j (n = j + |k|, p = j) with the move j - 1 -> j below the diagonal and
    j + 1 -> j above it."""
    k = np.asarray(k_abs, dtype=np.float64)[:, None]
    j = np.arange(dim, dtype=np.float64)
    n, p = j + k, j
    inside = j < dim - k
    gens = np.zeros((k.shape[0], dim, dim))
    r = np.arange(dim)
    gens[:, r, r] = np.where(inside, -(kn1 * ((n + 1.0) + (p + 1.0))) - kn2 * (n + p), 0.0)
    gens[:, r[1:], r[:-1]] = np.where(
        inside[:, 1:], (2.0 * kn1) * (np.sqrt(n[:, 1:]) * np.sqrt(p[1:])), 0.0)
    # the source j + 1 must lie inside the sector too
    gens[:, r[:-1], r[1:]] = np.where(
        inside[:, 1:], (2.0 * kn2) * (np.sqrt(n[:, :-1] + 1.0) * np.sqrt(p[:-1] + 1.0)), 0.0)
    return gens


def gen_mode_a(k_abs: np.ndarray, dim: int, kn1: float, kn2: float) -> np.ndarray:
    """Mode a's generator L per offset in ``k_abs``: x_s -> L x_s."""
    return _generators(k_abs, dim, kn1, kn2)


def gen_mode_b(k_abs: np.ndarray, dim: int, kn1: float, kn2: float) -> np.ndarray:
    """Mode b's generator per offset in ``k_abs``, transposed and C-ordered
    so it acts from the right: x_s -> x_s L^T."""
    return np.ascontiguousarray(_generators(k_abs, dim, kn1, kn2).transpose(0, 2, 1))
