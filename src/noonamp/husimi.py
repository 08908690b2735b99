"""Husimi Q function of two-mode states on coherent-amplitude grids.

Q(alpha, beta) = <alpha, beta| rho |alpha, beta> / pi^2, evaluated for all
pairs drawn from a list of mode-a amplitudes and a list of mode-b
amplitudes.  Coherent coefficients are assembled in log space.  The
quadratic form is contracted from the stored entries alone: they are
grouped by their mode-a pair (n, p) and mode-b pair (m, q) into a small
sparse coupling matrix C, and Q = Re(Pa C Pb^T) / pi^2 with
Pa[i, (n, p)] = conj(va[i, n]) va[i, p] over the used mode-a pairs and Pb
the same for mode b.  No dense copy of the state is made; the cost
follows the number of stored entries and used pairs, not d^2.

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


def _pair_coupling(state: TwoModeState):
    """The stored entries regrouped by mode pair: ((n, p), coupling, (m, q)).

    ``coupling[k, l]`` is the entry rho[n, m, p, q] with (n, p) the k-th used
    mode-a pair and (m, q) the l-th used mode-b pair, so that
    Q = Re(Pa @ coupling @ Pb.T) / pi^2 with Pa[i, k] = conj(va[i, n_k])
    va[i, p_k] and Pb[j, l] = conj(vb[j, m_l]) vb[j, q_l].  Only pairs that
    carry a stored entry get a row or column.
    """
    from scipy import sparse

    da, db = state.cutoffs.cutoff_a, state.cutoffs.cutoff_b
    coo = state.csr.tocoo()
    n, m = np.divmod(coo.row, db)
    p, q = np.divmod(coo.col, db)
    a_pairs, a_at = np.unique(n * da + p, return_inverse=True)
    b_pairs, b_at = np.unique(m * db + q, return_inverse=True)
    coupling = sparse.csr_array((coo.data, (a_at, b_at)),
                                shape=(len(a_pairs), len(b_pairs)))
    return np.divmod(a_pairs, da), coupling, np.divmod(b_pairs, db)


def _projectors(v: np.ndarray, pairs) -> np.ndarray:
    """conj(v[:, left]) * v[:, right] for each (left, right) pair."""
    left, right = pairs
    return v[:, left].conj() * v[:, right]


def _chunks(total: int, width: int):
    """Slices over ``total`` samples, each holding about 2M entries of
    ``width``: bounds the intermediates of a state that fills every pair."""
    step = max(1, 2_000_000 // max(width, 1))
    return (slice(lo, min(lo + step, total)) for lo in range(0, total, step))


def q_evaluate(state: TwoModeState, grid: QGrid, enforce_guard: bool = True,
               clamp: float | None = None) -> QGrid:
    """Q over all (alpha_i, beta_j) pairs of the grid."""
    clamp = config.Q_CLAMP if clamp is None else clamp
    c = state.cutoffs
    _guard(grid.alpha_samples, c.cutoff_a, "alpha", enforce_guard)
    _guard(grid.beta_samples, c.cutoff_b, "beta", enforce_guard)

    va = coherent_matrix(grid.alpha_samples, c.cutoff_a)
    vb = coherent_matrix(grid.beta_samples, c.cutoff_b)
    a_pairs, coupling, b_pairs = _pair_coupling(state)
    pb_t = _projectors(vb, b_pairs).T
    values = np.empty((len(va), len(vb)))
    for rows in _chunks(len(va), sum(coupling.shape) + len(vb)):
        pa = _projectors(va[rows], a_pairs)
        values[rows] = ((pa @ coupling) @ pb_t).real / math.pi**2

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
    a_pairs, coupling, b_pairs = _pair_coupling(state)
    out = np.empty(len(va))
    for rows in _chunks(len(va), sum(coupling.shape)):
        pa_c = _projectors(va[rows], a_pairs) @ coupling
        out[rows] = (pa_c * _projectors(vb[rows], b_pairs)).sum(axis=1).real / math.pi**2
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
    # each amplitude is formatted once per axis, each Q value once per row
    alphas = [f"{a.real:.12g},{a.imag:.12g}," for a in grid.alpha_samples]
    betas = [f"{b.real:.12g},{b.imag:.12g}," for b in grid.beta_samples]
    with open(path, "w") as fh:
        fh.write("re_alpha,im_alpha,re_beta,im_beta,q_value\n")
        for a, row in zip(alphas, grid.values.tolist()):
            fh.write("".join(f"{a}{b}{q:.12g}\n" for b, q in zip(betas, row)))
