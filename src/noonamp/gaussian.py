"""Gaussian benchmarks: two-mode squeezed vacuum under amplification.

The covariance-matrix side works in quadrature ordering (x_a, p_a, x_b,
p_b) with the vacuum normalized to the identity, so an amplified vacuum
has diagonal 2 g2 - 1 and mean photon number g2 - 1 per mode.  Gaussian
entanglement is quantified the same way as the Fock side: E_N =
max(0, -log2 nu_minus) with nu_minus the smaller symplectic eigenvalue of
the partially transposed covariance.  ``amplify_covariance`` takes the
same ``channel.AmplifierParams`` as the Fock-side channel and its oracle.

The squeezed vacuum loses all entanglement at a finite gain,

    g2* = (2 + 2 eta) / (1 + 2 eta + e^(-2 r))   both modes amplified
    g2* = 1 + 1/eta                              one mode amplified

(the one-sided threshold runs off to infinity as eta -> 0), and the
photon-added squeezed vacuum inherits the two-sided bound because photon
addition commutes with the channel up to normalization.  The Fock-side
pipeline here makes that bound measurable: expand the squeezed vacuum in
the number basis, add a photon to each mode, apply the exact channel
(``channel.amplify_state``, any eta >= 0) at each gain, and read off the
negativity.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import config
from .channel import MODE_SYMMETRIC, AmplifierParams, amplify_state, photon_add_both
from .fock import ModeCutoffs, TwoModeState
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
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError("r must be finite and >= 0")


@dataclass(frozen=True)
class CovarianceState:
    """4x4 real symmetric covariance matrix, vacuum = identity."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.shape != (4, 4):
            raise ValueError("covariance must be 4x4")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance entries must be finite")
        if float(np.abs(cov - cov.T).max()) > 1e-10:
            raise ValueError("covariance must be symmetric")
        # uncertainty relation: cov + i Omega >= 0, up to the rounding of
        # eigvalsh, which is about eps max|V_ij|
        eigs = np.linalg.eigvalsh(cov + 1j * _OMEGA)
        if float(eigs[0]) < -max(1e-10, 64.0 * np.finfo(float).eps * float(np.abs(cov).max())):
            raise ValueError(f"covariance violates the uncertainty relation "
                             f"(min eig {eigs[0]:.3e})")
        object.__setattr__(self, "cov", cov)


def tmsv_covariance(spec: SqueezingSpec) -> CovarianceState:
    """Two-mode squeezed vacuum: cosh(2r) blocks with sinh(2r) x/p correlations."""
    try:
        ch, sh = math.cosh(2.0 * spec.r), math.sinh(2.0 * spec.r)
    except OverflowError:
        raise ValueError(f"cosh(2r) is not finite at r = {spec.r:g}") from None
    z = np.diag([1.0, -1.0])
    cov = np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
    return CovarianceState(cov=cov)


def amplify_covariance(state: CovarianceState, params: AmplifierParams) -> CovarianceState:
    """The amplifier ``params`` on a covariance matrix.

    Each amplified 2x2 block picks up g2 * sigma + (g2 - 1)(2 eta + 1) I;
    cross blocks scale by G per amplified side.
    """
    g_squared, modes = params.g_squared, params.amplified_modes
    g = math.sqrt(g_squared)
    noise = (g_squared - 1.0) * (2.0 * params.eta + 1.0)
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
    """Smaller symplectic eigenvalue of the partial transpose (p_b -> -p_b).

    nu_minus^2 is the smaller root of x^2 - Delta x + det V, taken as
    2 det V / (Delta + sqrt(Delta^2 - 4 det V)): the textbook form
    (Delta - sqrt(...)) / 2 cancels to nothing once det V is small against
    Delta^2, at high gain.  V is first scaled by a power of two to entries
    below 1, so its determinant cannot overflow, and nu_minus is scaled
    back exactly.
    """
    exponent = math.frexp(float(np.abs(state.cov).max()))[1]
    v = np.ldexp(state.cov, -exponent)
    a = np.linalg.det(v[:2, :2])
    b = np.linalg.det(v[2:, 2:])
    c = np.linalg.det(v[:2, 2:])
    det = np.linalg.det(v)
    delta_pt = a + b - 2.0 * c
    disc = max(delta_pt**2 - 4.0 * det, 0.0)
    return math.ldexp(math.sqrt(max(2.0 * det / (delta_pt + math.sqrt(disc)), 0.0)), exponent)


def gaussian_log_negativity(state: CovarianceState) -> float:
    """E_N = max(0, -log2 nu_minus), matching the Fock-side base-2 convention."""
    nu = _nu_minus(state)
    if nu >= 1.0:
        return 0.0
    return -math.log2(nu)


def _require_eta(eta: float):
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValueError("eta must be finite and >= 0")


def threshold_symmetric(spec: SqueezingSpec, eta: float) -> float:
    """Gain killing the squeezed vacuum's entanglement when both modes amplify."""
    _require_eta(eta)
    return (2.0 + 2.0 * eta) / (1.0 + 2.0 * eta + math.exp(-2.0 * spec.r))


def threshold_asymmetric(eta: float) -> float:
    """One-sided threshold 1 + 1/eta; unbounded at eta = 0."""
    _require_eta(eta)
    if eta == 0.0:
        return math.inf
    return 1.0 + 1.0 / eta


def threshold_bisection(spec: SqueezingSpec, eta: float,
                        mode_config: str = MODE_SYMMETRIC) -> float:
    """Zero crossing of nu_minus(g2) - 1 along the gain axis of the amplifier
    with bath parameter ``eta`` on ``mode_config``'s modes, bracketed from
    G^2 = 2 upward by doubling and bisected to a width of 1e-10.

    Independent of the closed-form thresholds: pure covariance sweep.
    """
    base = tmsv_covariance(spec)

    def f(g2: float) -> float:
        params = AmplifierParams(g2, eta=eta, mode_config=mode_config)
        return _nu_minus(amplify_covariance(base, params)) - 1.0

    lo = 1.0
    if f(lo) >= 0.0:
        return lo  # no entanglement to lose
    hi = 2.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("no entanglement-breaking gain below 1e9")
    while hi - lo > 1e-10:
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


def _pipeline_cutoff(r: float, g_max: float) -> int:
    """Cutoff for the photon-added pipeline, from the amplified thermal
    envelope plus margin for the photon-addition polynomial tilt; ``g_max``
    is the top amplifier-stage gain g' (G^2 at eta = 0)."""
    mean = g_max * (math.sinh(r) ** 2 + 1.0) - 1.0
    if mean <= 0.0:
        return 8
    q = mean / (mean + 1.0)
    if not q < 1.0:  # mean + 1 rounds to mean, or overflows
        raise ValueError(f"amplifier-stage gain g' = {g_max:g} needs auto cutoffs "
                         f"past the dimension cap {config.MAX_TOTAL_DIMENSION}")
    geometric = math.ceil(math.log(config.DEFAULT_TAIL_TOL * (1.0 - q)) / math.log(q))
    return geometric + 4


def photon_added_tmsv_negativity_sweep(
        spec: SqueezingSpec, g_grid, eta: float = 0.0
) -> list[tuple[float, float, TwoModeState]]:
    """Fock-side E_N of the photon-added squeezed vacuum at each gain.

    Builds adag bdag |tmsv><tmsv| b a (normalized), applies the exact
    channel with bath parameter ``eta`` to it at each gain of the sorted
    grid, and diagonalizes the partial transpose of each output.  Each row
    is (g2, E_N, output state); the state carries the cutoffs and the
    trace_deficit that E_N was computed at.
    """
    if spec.r > 0.8:
        raise ValueError("r > 0.8 needs cutoffs beyond the desk-scale budget")
    gains = sorted(float(g) for g in g_grid)
    if gains and gains[0] < 1.0:
        raise ValueError("gains must be >= 1")
    top = AmplifierParams(gains[-1] if gains else 1.0, eta=eta)
    cutoff = max(_pipeline_cutoff(spec.r, top.stage_gain), 8)
    cutoffs = ModeCutoffs(cutoff, cutoff)

    added = photon_add_both(tmsv_fock(spec, cutoffs))
    states = [amplify_state(added, AmplifierParams(g, eta=eta)) for g in gains]
    return [(g, log_negativity_dense(st).log_negativity, st) for g, st in zip(gains, states)]
