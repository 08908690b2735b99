"""Gaussian benchmarks: two-mode squeezed vacuum under amplification.

The covariance-matrix side works in quadrature ordering (x_a, p_a, x_b,
p_b) with the vacuum normalized to the identity, so an amplified vacuum
has diagonal 2 g2 - 1 and mean photon number g2 - 1 per mode.  Gaussian
entanglement is quantified the same way as the Fock side: E_N =
max(0, -log2 nu_minus) with nu_minus the smaller symplectic eigenvalue of
the partially transposed covariance.

The squeezed vacuum loses all entanglement at a finite gain,

    g2* = (2 + 2 eta) / (1 + 2 eta + e^(-2 r))   both modes amplified
    g2* = 1 + 1/eta                              one mode amplified

(the one-sided threshold runs off to infinity as eta -> 0), and the
photon-added squeezed vacuum inherits the two-sided bound because photon
addition commutes with the channel up to normalization.  The Fock-side
pipeline here makes that bound measurable: expand the squeezed vacuum in
the number basis, add a photon to each mode, integrate the master
equation to each gain, and read off the negativity.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import config
from .channel import photon_add_both
from .fock import ModeCutoffs, TwoModeState
from .lindblad import LindbladParams, evolve_checkpoints
from .negativity import log_negativity_dense

_OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


@dataclass(frozen=True)
class SqueezingSpec:
    """Squeezing parameter r >= 0 (phase taken real; E_N only sees r)."""

    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be >= 0")


@dataclass(frozen=True)
class CovarianceState:
    """4x4 real symmetric covariance matrix, vacuum = identity."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.shape != (4, 4):
            raise ValueError("covariance must be 4x4")
        if float(np.abs(cov - cov.T).max()) > 1e-10:
            raise ValueError("covariance must be symmetric")
        # uncertainty relation: cov + i Omega >= 0
        eigs = np.linalg.eigvalsh(cov + 1j * _OMEGA)
        if float(eigs[0]) < -1e-10:
            raise ValueError(f"covariance violates the uncertainty relation "
                             f"(min eig {eigs[0]:.3e})")
        object.__setattr__(self, "cov", cov)


def tmsv_covariance(spec: SqueezingSpec) -> CovarianceState:
    """Two-mode squeezed vacuum: cosh(2r) blocks with sinh(2r) x/p correlations."""
    ch, sh = math.cosh(2.0 * spec.r), math.sinh(2.0 * spec.r)
    z = np.diag([1.0, -1.0])
    cov = np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
    return CovarianceState(cov=cov)


def amplify_covariance(state: CovarianceState, g_squared: float, eta: float = 0.0,
                       modes: tuple[str, ...] = ("a", "b")) -> CovarianceState:
    """Phase-insensitive gain on the chosen modes.

    Each amplified 2x2 block picks up g2 * sigma + (g2 - 1)(2 eta + 1) I;
    cross blocks scale by G per amplified side.
    """
    if g_squared < 1.0:
        raise ValueError("g_squared must be >= 1")
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    if not set(modes) <= {"a", "b"}:
        raise ValueError("modes must be a subset of {'a', 'b'}")
    g = math.sqrt(g_squared)
    noise = (g_squared - 1.0) * (2.0 * eta + 1.0)
    scale = np.ones(4)
    added = np.zeros(4)
    if "a" in modes:
        scale[:2] = g
        added[:2] = noise
    if "b" in modes:
        scale[2:] = g
        added[2:] = noise
    cov = state.cov * np.outer(scale, scale) + np.diag(added)
    return CovarianceState(cov=cov)


def _nu_minus(state: CovarianceState) -> float:
    """Smaller symplectic eigenvalue of the partial transpose (p_b -> -p_b)."""
    v = state.cov
    a = np.linalg.det(v[:2, :2])
    b = np.linalg.det(v[2:, 2:])
    c = np.linalg.det(v[:2, 2:])
    delta_pt = a + b - 2.0 * c
    disc = max(delta_pt**2 - 4.0 * np.linalg.det(v), 0.0)
    return math.sqrt(max((delta_pt - math.sqrt(disc)) / 2.0, 0.0))


def gaussian_log_negativity(state: CovarianceState) -> float:
    """E_N = max(0, -log2 nu_minus), matching the Fock-side base-2 convention."""
    nu = _nu_minus(state)
    if nu >= 1.0:
        return 0.0
    return -math.log2(nu)


def threshold_symmetric(spec: SqueezingSpec, eta: float) -> float:
    """Gain killing the squeezed vacuum's entanglement when both modes amplify."""
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    return (2.0 + 2.0 * eta) / (1.0 + 2.0 * eta + math.exp(-2.0 * spec.r))


def threshold_asymmetric(eta: float) -> float:
    """One-sided threshold 1 + 1/eta; unbounded at eta = 0."""
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    if eta == 0.0:
        return math.inf
    return 1.0 + 1.0 / eta


def threshold_bisection(spec: SqueezingSpec, eta: float,
                        modes: tuple[str, ...] = ("a", "b"),
                        g_hi: float | None = None, tol: float = 1e-10) -> float:
    """Zero crossing of nu_minus(g2) - 1 along the gain axis.

    Independent of the closed-form thresholds: pure covariance sweep.
    """
    base = tmsv_covariance(spec)

    def f(g2: float) -> float:
        return _nu_minus(amplify_covariance(base, g2, eta=eta, modes=modes)) - 1.0

    lo = 1.0
    if f(lo) >= 0.0:
        return lo  # no entanglement to lose
    hi = g_hi if g_hi is not None else 2.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("no entanglement-breaking gain below 1e9")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tmsv_fock(spec: SqueezingSpec, cutoffs: ModeCutoffs) -> TwoModeState:
    """Number-basis squeezed vacuum: amplitudes tanh(r)^n / cosh(r) on |n, n>.

    Truncation loss goes to trace_deficit, never renormalized.
    """
    n_max = min(cutoffs.cutoff_a, cutoffs.cutoff_b)
    lam = math.tanh(spec.r)
    amps = lam ** np.arange(n_max) / math.cosh(spec.r)
    idx = cutoffs.flat_index(np.arange(n_max), np.arange(n_max))
    return TwoModeState.from_entries(cutoffs, np.repeat(idx, n_max), np.tile(idx, n_max),
                                     np.outer(amps, amps).ravel())


def _pipeline_cutoff(r: float, g_max: float, tail_tol: float) -> int:
    """Cutoff for the photon-added pipeline, from the amplified thermal
    envelope plus margin for the photon-addition polynomial tilt."""
    mean = g_max * (math.sinh(r) ** 2 + 1.0) - 1.0
    if mean <= 0.0:
        return 8
    q = mean / (mean + 1.0)
    geometric = math.ceil(math.log(tail_tol * (1.0 - q)) / math.log(q))
    return geometric + 4


def photon_added_tmsv_negativity_sweep(
        spec: SqueezingSpec, g_grid, cutoff: int | None = None,
        step_size: float = 5e-4,
        tail_tol: float = config.DEFAULT_TAIL_TOL
) -> list[tuple[float, float, TwoModeState]]:
    """Fock-side E_N of the photon-added squeezed vacuum at each gain.

    Builds adag bdag |tmsv><tmsv| b a (normalized), integrates the master
    equation continuously through the sorted gain grid (eta = 0), and
    diagonalizes the partial transpose at each checkpoint.  Each row is
    (g2, E_N, checkpoint state); the state carries the cutoffs and the
    trace_deficit that E_N was computed at.
    """
    if spec.r > 0.8:
        raise ValueError("r > 0.8 needs cutoffs beyond the desk-scale budget")
    gains = sorted(float(g) for g in g_grid)
    if gains and gains[0] < 1.0:
        raise ValueError("gains must be >= 1")
    g_max = gains[-1] if gains else 1.0
    if cutoff is None:
        cutoff = max(_pipeline_cutoff(spec.r, g_max, tail_tol), 8)
    cutoffs = ModeCutoffs(cutoff, cutoff)

    added = photon_add_both(tmsv_fock(spec, cutoffs))
    params = LindbladParams(kappa_n1=1.0, kappa_n2=0.0, amplified_modes=("a", "b"))

    states = evolve_checkpoints(added, params, gains, step_size=step_size)
    return [(g, log_negativity_dense(st).log_negativity, st) for g, st in zip(gains, states)]
