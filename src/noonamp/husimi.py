"""Husimi Q function of two-mode states on coherent-amplitude grids.

Q(alpha, beta) = <alpha, beta| rho |alpha, beta> / pi^2, evaluated for all
pairs drawn from a list of mode-a amplitudes and a list of mode-b
amplitudes.  Coherent coefficients are assembled in log space.  The
quadratic form is contracted one phase sector at a time:
Q = sum over stored sectors s of w_s Re(U_a[k_a] x_s U_b[k_b]^T) / pi^2,
with U[k][i, j] = conj(v[i, j + max(k, 0)]) v[i, j + max(-k, 0)] the
coherent products along the sector's diagonal and w_s = 2 for every sector
but (0, 0), whose unstored mirror adds the complex conjugate.  No dense
copy of the state is made; the cost follows the number of stored sectors,
not d^2.

Both evaluators, over the product grid (``q_evaluate``) and at matched
pairs (``q_pairs``), share one path: the amplitude guard, the coherent
rows, the per-sector contraction, the 1/pi^2 factor and the clamp.  The
checks built on Q (the eta = 0 scaling law and the zero locus of the NOON
state) live in ``noonamp.checks``.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import config
from .fock import TwoModeState, log_factorials

# Q values per written block of the CSV dump; the text of one block is held at once
_CSV_BLOCK = 2**17


@dataclass(frozen=True)
class QGrid:
    """Sampled amplitudes per mode and, once evaluated, Q over all pairs."""

    alpha_samples: np.ndarray
    beta_samples: np.ndarray
    values: np.ndarray | None = None


def _check_extent(extent: float) -> None:
    if not (math.isfinite(extent) and extent >= 0.0):
        raise ValueError("extent must be finite and >= 0")


def square_mesh(extent: float, points: int) -> tuple[np.ndarray, float]:
    """Complex samples on a uniform (points x points) mesh over
    [-extent, extent]^2; returns (samples, spacing)."""
    _check_extent(extent)
    if points < 1:
        raise ValueError("points must be >= 1")
    axis = np.linspace(-extent, extent, points)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    spacing = axis[1] - axis[0] if points > 1 else 2.0 * extent
    return (re + 1j * im).ravel(), float(spacing)


def default_grid_for_state(state: TwoModeState, extent: float = 3.0,
                           points: int = 41) -> QGrid:
    """Square mesh over [-extent, extent]^2 per mode, shrunk so the
    amplitude guard of q_evaluate holds.

    The guard caps |amplitude|^2 at cutoff/4; the square's corner carries
    2 * extent^2, so the extent shrinks to sqrt(cutoff/8) when needed.  The
    extent is checked before it is shrunk, so an infinite one is refused.
    """
    _check_extent(extent)
    ext_a = min(extent, math.sqrt(state.cutoffs.cutoff_a / 8.0))
    ext_b = min(extent, math.sqrt(state.cutoffs.cutoff_b / 8.0))
    a, _ = square_mesh(ext_a, points)
    b, _ = square_mesh(ext_b, points)
    return QGrid(alpha_samples=a, beta_samples=b)


def coherent_matrix(samples: np.ndarray, cutoff: int) -> np.ndarray:
    """Rows are truncated coherent-state coefficient vectors
    v_n = exp(-|z|^2/2) z^n / sqrt(n!), built in log space."""
    samples = np.asarray(samples, dtype=np.complex128)
    n = np.arange(cutoff)
    log_fact_half = 0.5 * log_factorials(cutoff)
    absz = np.abs(samples)
    out = np.zeros((len(samples), cutoff), dtype=np.complex128)
    zero = absz == 0.0
    out[zero, 0] = 1.0
    if np.any(~zero):
        z = samples[~zero]
        a = np.abs(z)
        logmag = (-0.5 * a[:, None] ** 2 + n[None, :] * np.log(a)[:, None]
                  - log_fact_half[None, :])
        phase = np.angle(z)[:, None] * n[None, :]
        out[~zero] = np.exp(logmag) * np.exp(1j * phase)
    return out


def _guard(samples: np.ndarray, cutoff: int, label: str):
    top = float(np.max(np.abs(samples) ** 2, initial=0.0))
    if not top <= cutoff / 4.0 + 1e-12:   # a NaN amplitude fails too
        raise ValueError(
            f"|{label}|^2 = {top:.4g} exceeds cutoff/4 = {cutoff / 4.0:.4g}; "
            "coherent-state tails past the cutoff would contaminate Q"
        )


def _sector_factors(state: TwoModeState, va: np.ndarray, vb: np.ndarray):
    """Per stored sector (k_a, k_b): (w U_a[k_a] x_s, U_b[k_b]), so that
    Q = sum over sectors of Re(w U_a[k_a] x_s U_b[k_b]^T) / pi^2, with the
    weight w = 2 counting the unstored mirror of every sector but (0, 0)."""
    for k_a, k_b, x_s in zip(state.k_a.tolist(), state.k_b.tolist(), state.x):
        u_a, u_b = _diagonal_products(va, k_a), _diagonal_products(vb, k_b)
        weight = 1.0 if k_a == k_b == 0 else 2.0
        yield weight * (u_a @ x_s[:u_a.shape[1], :u_b.shape[1]]), u_b


def _diagonal_products(v: np.ndarray, k: int) -> np.ndarray:
    """U[i, j] = conj(v[i, j + max(k, 0)]) v[i, j + max(-k, 0)] for the
    positions j < cutoff - |k| of a sector with phase offset k."""
    size = v.shape[1] - abs(k)
    return v[:, max(k, 0):][:, :size].conj() * v[:, max(-k, 0):][:, :size]


def _q_values(state: TwoModeState, alphas: np.ndarray, betas: np.ndarray, shape,
              contract) -> np.ndarray:
    """Q of ``shape`` summed over the stored sectors, ``contract(left, u_b)``
    giving one sector's share from the factors of ``_sector_factors``;
    values in [-config.Q_CLAMP, 0) are clipped to zero and anything lower
    raises."""
    c = state.cutoffs
    _guard(alphas, c.cutoff_a, "alpha")
    _guard(betas, c.cutoff_b, "beta")
    va = coherent_matrix(alphas, c.cutoff_a)
    vb = coherent_matrix(betas, c.cutoff_b)
    values = np.zeros(shape)
    for left, u_b in _sector_factors(state, va, vb):
        values += contract(left, u_b)
    values /= math.pi**2

    low = float(values.min(initial=0.0))
    if low < -config.Q_CLAMP:
        raise ValueError(f"Q dipped to {low:.3e}, beyond the clamp {-config.Q_CLAMP:g}")
    return np.clip(values, 0.0, None, out=values)


def q_evaluate(state: TwoModeState, grid: QGrid) -> QGrid:
    """Q over all (alpha_i, beta_j) pairs of the grid."""
    a, b = grid.alpha_samples, grid.beta_samples
    values = _q_values(state, a, b, (len(a), len(b)),
                       lambda left, u_b: (left @ u_b.T).real)
    return QGrid(alpha_samples=a, beta_samples=b, values=values)


def q_pairs(state: TwoModeState, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Q at matched (alpha_k, beta_k) pairs (not the full product grid)."""
    alphas = np.asarray(alphas, dtype=np.complex128)
    betas = np.asarray(betas, dtype=np.complex128)
    if alphas.shape != betas.shape:
        raise ValueError("alphas and betas must have matching shapes")
    return _q_values(state, alphas, betas, len(alphas),
                     lambda left, u_b: (left * u_b).sum(axis=1).real)


def write_qgrid_csv(grid: QGrid, path) -> None:
    """Columns re_alpha, im_alpha, re_beta, im_beta, q_value, one row per pair.

    Written in blocks of whole alpha rows, about ``_CSV_BLOCK`` values each,
    so the text held at once stays bounded.  Each amplitude is formatted
    once per axis and each distinct Q value once per block, told apart by
    bit pattern so that -0.0 keeps its sign.  A block's (alpha, beta, value)
    texts are interleaved in one object array, and each row joined.
    """
    if grid.values is None:
        raise ValueError("grid has no evaluated values")
    alphas = np.array([f"{a.real:.12g},{a.imag:.12g}," for a in grid.alpha_samples], dtype=object)
    betas = np.array([f"{b.real:.12g},{b.imag:.12g}," for b in grid.beta_samples], dtype=object)
    values = np.ascontiguousarray(grid.values, dtype=np.float64)
    rows = max(1, _CSV_BLOCK // max(1, values.shape[1]))
    with open(path, "w") as fh:
        fh.write("re_alpha,im_alpha,re_beta,im_beta,q_value\n")
        for start in range(0, len(alphas), rows):
            block = values[start:start + rows]
            bits, which = np.unique(block.view(np.int64), return_inverse=True)
            distinct = bits.view(np.float64).tolist()
            texts = np.array(("%.12g\n" * len(distinct) % tuple(distinct)).splitlines(True),
                             dtype=object)
            fields = np.empty(block.shape + (3,), dtype=object)
            fields[..., 0] = alphas[start:start + rows, None]
            fields[..., 1] = betas
            fields[..., 2] = texts[which.reshape(block.shape)]
            for line in fields.reshape(len(block), -1):
                fh.write("".join(line.tolist()))
