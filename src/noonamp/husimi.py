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

At eta = 0 the amplifier acts on Q by pure argument scaling: equal gain
on both modes sends Q(a, b) to Q(a/G, b/G)/G^4, gain on mode a alone to
Q(a/G, b)/G^2.  ``check_scaling_law`` measures the worst grid violation
of that law and ``check_zero_locus`` verifies that the zero set of Q
(the nonclassicality witness of the NOON state) is only stretched by G,
never filled in.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import channel, config
from .fock import ModeCutoffs, TwoModeState, log_factorials


@dataclass(frozen=True)
class QGrid:
    """Sampled amplitudes per mode and, once evaluated, Q over all pairs."""

    alpha_samples: np.ndarray
    beta_samples: np.ndarray
    values: np.ndarray | None = None


def square_mesh(extent: float, points: int) -> tuple[np.ndarray, float]:
    """Complex samples on a uniform (points x points) mesh over
    [-extent, extent]^2; returns (samples, spacing)."""
    if not (math.isfinite(extent) and extent >= 0.0):
        raise ValueError("extent must be finite and >= 0")
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
    if top > cutoff / 4.0 + 1e-12:
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


def q_evaluate(state: TwoModeState, grid: QGrid) -> QGrid:
    """Q over all (alpha_i, beta_j) pairs of the grid; values in
    [-config.Q_CLAMP, 0) are clipped to zero and anything lower raises."""
    c = state.cutoffs
    _guard(grid.alpha_samples, c.cutoff_a, "alpha")
    _guard(grid.beta_samples, c.cutoff_b, "beta")

    va = coherent_matrix(grid.alpha_samples, c.cutoff_a)
    vb = coherent_matrix(grid.beta_samples, c.cutoff_b)
    values = np.zeros((len(va), len(vb)))
    for left, u_b in _sector_factors(state, va, vb):
        values += (left @ u_b.T).real
    values /= math.pi**2

    low = float(values.min(initial=0.0))
    if low < -config.Q_CLAMP:
        raise ValueError(f"Q dipped to {low:.3e}, beyond the clamp {-config.Q_CLAMP:g}")
    np.clip(values, 0.0, None, out=values)
    return QGrid(alpha_samples=grid.alpha_samples, beta_samples=grid.beta_samples,
                 values=values)


def q_pairs(state: TwoModeState, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Q at matched (alpha_k, beta_k) pairs (not the full product grid)."""
    alphas = np.asarray(alphas, dtype=np.complex128)
    betas = np.asarray(betas, dtype=np.complex128)
    if alphas.shape != betas.shape:
        raise ValueError("alphas and betas must have matching shapes")
    c = state.cutoffs
    _guard(alphas, c.cutoff_a, "alpha")
    _guard(betas, c.cutoff_b, "beta")
    va = coherent_matrix(alphas, c.cutoff_a)
    vb = coherent_matrix(betas, c.cutoff_b)
    out = np.zeros(len(va))
    for left, u_b in _sector_factors(state, va, vb):
        out += (left * u_b).sum(axis=1).real
    out /= math.pi**2
    return np.clip(out, 0.0, None)


def check_scaling_law(state_in: TwoModeState, state_out: TwoModeState,
                      params: channel.AmplifierParams, grid: QGrid) -> float:
    """Worst-grid |Q_out(args) - scale * Q_in(scaled args)| for the channel.

    Each amplified mode's argument is divided by G and Q scaled by 1/G^2:
    Q_in(a/G, b/G)/G^4 with both modes amplified, Q_in(a/G, b)/G^2 with
    mode a only.  The law holds at eta = 0 only; other params are refused.
    The input state must be held at cutoffs large enough for the same grid
    (build the NOON input at the amplified cutoffs).
    """
    if params.eta != 0.0:
        raise ValueError("the Q scaling law holds only at eta = 0")
    g = math.sqrt(params.g_squared)
    modes = params.amplified_modes
    q_out = q_evaluate(state_out, grid).values
    scaled = QGrid(grid.alpha_samples / g if "a" in modes else grid.alpha_samples,
                   grid.beta_samples / g if "b" in modes else grid.beta_samples)
    scale = 1.0 / params.g_squared ** len(modes)
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


def check_zero_locus(spec, g_squared: float, zero_candidates) -> bool:
    """An eta = 0 check: at eta > 0 the added noise fills the zeros of Q.

    True iff Q of the amplified NOON state (both modes, eta = 0), at the
    default auto cutoffs, stays below 1e-12 of its maximum over an 11 x 11
    grid at every candidate zero and above 1e-6 of it at perturbed control
    points.

    ``zero_candidates`` is a pair (alphas, betas) of matched arrays, already
    stretched by the gain; controls multiply each beta by 1.05.
    """
    alphas, betas = zero_candidates
    alphas = np.asarray(alphas, dtype=np.complex128)
    betas = np.asarray(betas, dtype=np.complex128)
    perturb = 1.05

    params = channel.AmplifierParams(g_squared=g_squared, mode_config=channel.MODE_SYMMETRIC)
    cutoffs = channel.select_cutoffs(spec, params, channel.CutoffPolicy())
    need_a = int(4.0 * float(np.max(np.abs(alphas) ** 2, initial=0.0))) + 1
    need_b = int(4.0 * float(np.max(np.abs(betas) ** 2, initial=0.0)) * perturb**2) + 1
    if cutoffs.cutoff_a < need_a or cutoffs.cutoff_b < need_b:
        cutoffs = ModeCutoffs(max(cutoffs.cutoff_a, need_a), max(cutoffs.cutoff_b, need_b))
    state = channel.amplify_noon(spec, params, cutoffs)

    reference = q_evaluate(state, default_grid_for_state(state, points=11))
    q_max = float(reference.values.max())
    q_zero = q_pairs(state, alphas, betas)
    q_ctrl = q_pairs(state, alphas, betas * perturb)

    # six orders of magnitude lie between the zeros and the controls
    return bool(np.all(q_zero < 1e-12 * q_max) and np.all(q_ctrl > 1e-6 * q_max))


def write_qgrid_csv(grid: QGrid, path) -> None:
    """Columns re_alpha, im_alpha, re_beta, im_beta, q_value, one row per pair."""
    if grid.values is None:
        raise ValueError("grid has no evaluated values")
    # each amplitude is formatted once per axis, each Q value once per row
    alphas = [f"{a.real:.12g},{a.imag:.12g}," for a in grid.alpha_samples]
    betas = [f"{b.real:.12g},{b.imag:.12g}," for b in grid.beta_samples]
    with open(path, "w") as fh:
        fh.write("re_alpha,im_alpha,re_beta,im_beta,q_value\n")
        for a, row in zip(alphas, grid.values.tolist()):
            fh.write("".join(f"{a}{b}{q:.12g}\n" for b, q in zip(betas, row)))
