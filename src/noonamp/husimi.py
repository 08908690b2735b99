"""Husimi Q function of two-mode states on coherent-amplitude grids.

Q(alpha, beta) = <alpha, beta| rho |alpha, beta> / pi^2, evaluated for all
pairs drawn from a list of mode-a amplitudes and a list of mode-b
amplitudes.  Coherent coefficients are assembled in log space and the
quadratic form is contracted as a pair of matrix products, so a full
41 x 41-per-plane grid stays cheap at desk-scale cutoffs.

The amplifier acts on Q by pure argument scaling: equal gain on both
modes sends Q(a, b) to Q(a/G, b/G)/G^4, gain on mode a alone to
Q(a/G, b)/G^2.  ``check_scaling_law`` measures the worst grid violation
of that law and ``check_zero_locus`` verifies that the zero set of Q
(the nonclassicality witness of the NOON state) is only stretched by G,
never filled in.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import gammaln

from . import channel, config
from .fock import ModeCutoffs, TwoModeState


@dataclass(frozen=True)
class QGrid:
    """Sampled amplitudes per mode and, once evaluated, Q over all pairs."""

    alpha_samples: np.ndarray
    beta_samples: np.ndarray
    values: np.ndarray | None = None


def square_mesh(extent: float, points: int) -> tuple[np.ndarray, float]:
    """Complex samples on a uniform (points x points) mesh over
    [-extent, extent]^2; returns (samples, spacing)."""
    if points < 1:
        raise ValueError("points must be >= 1")
    axis = np.linspace(-extent, extent, points)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    spacing = axis[1] - axis[0] if points > 1 else 2.0 * extent
    return (re + 1j * im).ravel(), float(spacing)


def default_grid(extent: float = 3.0, points: int = 41) -> QGrid:
    samples, _ = square_mesh(extent, points)
    return QGrid(alpha_samples=samples, beta_samples=samples.copy())


def default_grid_for_state(state: TwoModeState, extent: float = 3.0,
                           points: int = 41) -> QGrid:
    """Default grid, shrunk so the amplitude guard of q_evaluate holds.

    The guard caps |amplitude|^2 at cutoff/4; the square's corner carries
    2 * extent^2, so the extent shrinks to sqrt(cutoff/8) when needed.
    """
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
    log_fact_half = 0.5 * gammaln(n + 1.0)
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


def _guard(samples: np.ndarray, cutoff: int, label: str, enforce: bool):
    if not enforce:
        return
    top = float(np.max(np.abs(samples) ** 2, initial=0.0))
    if top > cutoff / 4.0 + 1e-12:
        raise ValueError(
            f"|{label}|^2 = {top:.4g} exceeds cutoff/4 = {cutoff / 4.0:.4g}; "
            "coherent-state tails past the cutoff would contaminate Q"
        )


def q_evaluate(state: TwoModeState, grid: QGrid, enforce_guard: bool = True,
               clamp: float | None = None) -> QGrid:
    """Q over all (alpha_i, beta_j) pairs of the grid."""
    clamp = config.Q_CLAMP if clamp is None else clamp
    c = state.cutoffs
    da, db = c.cutoff_a, c.cutoff_b
    _guard(grid.alpha_samples, da, "alpha", enforce_guard)
    _guard(grid.beta_samples, db, "beta", enforce_guard)

    va = coherent_matrix(grid.alpha_samples, da)
    vb = coherent_matrix(grid.beta_samples, db)
    t = state.tensor().astype(np.complex128)  # once, not per tensordot chunk
    n_alpha = va.shape[0]

    # pairwise coherent projectors of mode b, flattened: w[j, m*db+q]
    w = (vb.conj()[:, :, None] * vb[:, None, :]).reshape(len(vb), db * db)

    # chunk mode-a samples so the (chunk, db, da, db) intermediate stays at
    # 32 MB: with the dense state it sets the peak memory of a Q dump
    chunk = max(1, int(2_000_000 / max(db * da * db, 1)))
    u = np.empty((n_alpha, db * db), dtype=np.complex128)
    for lo in range(0, n_alpha, chunk):
        hi = min(lo + chunk, n_alpha)
        x = np.tensordot(va[lo:hi].conj(), t, axes=([1], [0]))  # (k, db, da, db)
        u[lo:hi] = np.einsum("kmpq,kp->kmq", x, va[lo:hi],
                             optimize=True).reshape(hi - lo, db * db)

    values = (u @ w.T).real / math.pi**2
    low = float(values.min(initial=0.0))
    if low < -clamp:
        raise ValueError(f"Q dipped to {low:.3e}, beyond the clamp {-clamp:g}")
    np.clip(values, 0.0, None, out=values)
    return QGrid(alpha_samples=grid.alpha_samples, beta_samples=grid.beta_samples,
                 values=values)


def q_pairs(state: TwoModeState, alphas: np.ndarray, betas: np.ndarray,
            enforce_guard: bool = True) -> np.ndarray:
    """Q at matched (alpha_k, beta_k) pairs (not the full product grid)."""
    alphas = np.asarray(alphas, dtype=np.complex128)
    betas = np.asarray(betas, dtype=np.complex128)
    if alphas.shape != betas.shape:
        raise ValueError("alphas and betas must have matching shapes")
    c = state.cutoffs
    _guard(alphas, c.cutoff_a, "alpha", enforce_guard)
    _guard(betas, c.cutoff_b, "beta", enforce_guard)
    va = coherent_matrix(alphas, c.cutoff_a)
    vb = coherent_matrix(betas, c.cutoff_b)
    t = state.tensor().astype(np.complex128)
    out = np.empty(len(alphas))
    for k in range(len(alphas)):
        amp = np.einsum("nmpq,n,m,p,q->", t, va[k].conj(), vb[k].conj(), va[k], vb[k],
                        optimize=True)
        out[k] = amp.real / math.pi**2
    return np.clip(out, 0.0, None)


def check_scaling_law(state_in: TwoModeState, state_out: TwoModeState,
                      g_squared: float, mode_config: str, grid: QGrid) -> float:
    """Worst-grid |Q_out(args) - scale * Q_in(scaled args)| for the channel.

    Equal gain on both modes: Q_in(a/G, b/G)/G^4.  Gain on mode a only:
    Q_in(a/G, b)/G^2.  The input state must be held at cutoffs large enough
    for the same grid (build the NOON input at the amplified cutoffs).
    """
    g = math.sqrt(g_squared)
    q_out = q_evaluate(state_out, grid).values
    if mode_config == channel.MODE_SYMMETRIC:
        scaled = QGrid(grid.alpha_samples / g, grid.beta_samples / g)
        scale = 1.0 / g_squared**2
    elif mode_config == channel.MODE_ASYMMETRIC_A:
        scaled = QGrid(grid.alpha_samples / g, grid.beta_samples)
        scale = 1.0 / g_squared
    else:
        raise ValueError(f"unknown mode_config {mode_config!r}")
    q_in = q_evaluate(state_in, scaled).values
    return float(np.max(np.abs(q_out - scale * q_in)))


def noon_zero_candidates(n_photons: int, g_squared: float,
                         base_alphas=(0.6, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """All N-th-root zeros of |a^N + b^N|, stretched by the gain: pairs
    (G a, G a e^{i pi (2k+1)/N}) for each base amplitude and k."""
    g = math.sqrt(g_squared)
    alphas, betas = [], []
    for a in base_alphas:
        for k in range(n_photons):
            root = np.exp(1j * math.pi * (2 * k + 1) / n_photons)
            alphas.append(g * a)
            betas.append(g * a * root)
    return np.asarray(alphas, dtype=np.complex128), np.asarray(betas, dtype=np.complex128)


def check_zero_locus(spec, g_squared: float, zero_candidates,
                     rel_tol: float = 1e-12, perturb: float = 1.05,
                     tail_tol: float = config.DEFAULT_TAIL_TOL,
                     reference_points: int = 11) -> bool:
    """True iff Q of the amplified NOON state vanishes (relative to the grid
    maximum) at every candidate zero and is cleanly nonzero at perturbed
    control points.

    ``zero_candidates`` is a pair (alphas, betas) of matched arrays, already
    stretched by the gain; controls multiply each beta by ``perturb``.
    """
    alphas, betas = zero_candidates
    alphas = np.asarray(alphas, dtype=np.complex128)
    betas = np.asarray(betas, dtype=np.complex128)

    params = channel.AmplifierParams(g_squared=g_squared, mode_config=channel.MODE_SYMMETRIC)
    policy = channel.CutoffPolicy(mode="auto", tail_tol=tail_tol)
    cutoffs = channel.select_cutoffs(spec, params, policy)
    need_a = int(4.0 * float(np.max(np.abs(alphas) ** 2, initial=0.0))) + 1
    need_b = int(4.0 * float(np.max(np.abs(betas) ** 2, initial=0.0)) * perturb**2) + 1
    if cutoffs.cutoff_a < need_a or cutoffs.cutoff_b < need_b:
        cutoffs = ModeCutoffs(max(cutoffs.cutoff_a, need_a), max(cutoffs.cutoff_b, need_b))
    state = channel.amplify_noon_symmetric(spec, params, cutoffs)

    reference = q_evaluate(state, default_grid_for_state(state, points=reference_points))
    q_max = float(reference.values.max())
    q_zero = q_pairs(state, alphas, betas)
    q_ctrl = q_pairs(state, alphas, betas * perturb)

    zero_ok = bool(np.all(q_zero < rel_tol * q_max))
    # sqrt(rel_tol) leaves six orders of magnitude between zeros and controls
    ctrl_ok = bool(np.all(q_ctrl > math.sqrt(rel_tol) * q_max))
    return zero_ok and ctrl_ok


def riemann_mass(grid: QGrid, spacing_a: float, spacing_b: float) -> float:
    """Normalization diagnostic: h_a^2 h_b^2 sum Q -> 1 as the grid grows."""
    if grid.values is None:
        raise ValueError("grid has no evaluated values")
    return float(grid.values.sum() * spacing_a**2 * spacing_b**2)


def write_qgrid_csv(grid: QGrid, path) -> None:
    """Columns re_alpha, im_alpha, re_beta, im_beta, q_value, one row per pair."""
    if grid.values is None:
        raise ValueError("grid has no evaluated values")
    with open(path, "w") as fh:
        fh.write("re_alpha,im_alpha,re_beta,im_beta,q_value\n")
        for i, a in enumerate(grid.alpha_samples):
            for j, b in enumerate(grid.beta_samples):
                fh.write(f"{a.real:.12g},{a.imag:.12g},{b.real:.12g},{b.imag:.12g},"
                         f"{grid.values[i, j]:.12g}\n")
