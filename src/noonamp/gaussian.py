"""Gaussian benchmarks: two-mode squeezed vacuum under amplification.

The covariance side works in quadrature ordering (x_a, p_a, x_b, p_b) with
the vacuum normalized to the identity, so an amplified vacuum has variance
2 g2 - 1 and mean photon number g2 - 1 per mode.  The squeezed vacuum has
the standard form V = [[a I, c Z], [c Z, b I]], Z = diag(1, -1), which
phase-insensitive gain keeps, so a state is the scalars a, b, c and the
ratio e = (ab - c^2) / (ab), and its symplectic eigenvalues are closed
forms.  E_N = max(0, -log2 nu_minus), nu_minus the smaller symplectic
eigenvalue of the partial transpose, as on the Fock side.
``amplify_covariance`` takes the same ``channel.AmplifierParams`` as the
Fock-side channel.

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
import sys

import numpy as np

from . import config
from .channel import MODE_SYMMETRIC, AmplifierParams, amplify_state, photon_add_both
from .fock import ModeCutoffs, TwoModeState
from .negativity import log_negativity_dense

# 64 roundings: the slack for the fields' own rounding in the checks below
_ROUNDING = 64.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class SqueezingSpec:
    """Squeezing parameter r >= 0 (phase taken real; E_N only sees r)."""

    r: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError("r must be finite and >= 0")


@dataclass(frozen=True)
class CovarianceState:
    """Standard-form covariance V = [[a I, c Z], [c Z, b I]], vacuum = identity,
    and e = (ab - c^2) / (ab), which keeps its digits where ab - c^2 << ab.

    Refused: a non-finite field; an e below sys.float_info.min (digits
    lost) or off 1 - c^2/(ab) by more than 64 roundings; and a V that
    breaks the uncertainty relation nu_minus(V) = 2(ab - c^2) /
    (sqrt((a - b)^2 + 4(ab - c^2)) + |a - b|) >= 1 by more than 64
    roundings of e, a and b, which move nu_minus by up to
    nu_minus^2 (a + b) / (ab - c^2) per unit of relative rounding.
    """

    a: float
    b: float
    c: float
    e: float

    def __post_init__(self):
        a, b, c, e = self.a, self.b, self.c, self.e
        if not all(map(math.isfinite, (a, b, c, e))):
            raise ValueError("covariance entries must be finite")
        if not e >= sys.float_info.min:
            raise ValueError(f"the excess ratio e = {e:g} is not a normal float")
        if not (a > 0.0 and b > 0.0):
            raise ValueError("covariance violates the uncertainty relation: a variance <= 0")
        if abs((c / a) * (c / b) + e - 1.0) > _ROUNDING:
            raise ValueError("e must equal 1 - c^2/(ab)")
        s = max(a, b)
        x, y = a / s, b / s
        den = math.hypot(x - y, 2.0 * math.sqrt(e * x * y)) + abs(x - y)
        nu = 2.0 * e * min(a, b) / den
        # 2 nu (x + y) / den is nu^2 (a + b) / (ab - c^2)
        tol = _ROUNDING * (1.0 + 2.0 * nu * (x + y) / den)
        if nu < 1.0 - tol:
            raise ValueError(f"covariance violates the uncertainty relation "
                             f"(nu_minus {nu:.12g}, bound 1 - {tol:.3e})")


def tmsv_covariance(spec: SqueezingSpec) -> CovarianceState:
    """Two-mode squeezed vacuum: a = b = cosh 2r, c = sinh 2r, e = 1/cosh^2 2r."""
    try:
        ch, sh = math.cosh(2.0 * spec.r), math.sinh(2.0 * spec.r)
    except OverflowError:
        raise ValueError(f"cosh(2r) is not finite at r = {spec.r:g}") from None
    return CovarianceState(ch, ch, sh, (1.0 / ch) ** 2)


def amplify_covariance(state: CovarianceState, params: AmplifierParams) -> CovarianceState:
    """The amplifier ``params`` on a standard-form covariance: each mode's
    variance v goes to v' = g2 v + n, n = (g2 - 1)(2 eta + 1), and c scales
    by sqrt(g2) per mode, with g2 = G^2 on an amplified mode and 1 on the
    other.  With each mode's kept share k = g2 v / v', the excess ratio is
    e' = k_a k_b e + k_a n_b / b' + n_a / a', non-negative terms that
    neither cancel nor overflow."""
    modes = params.amplified_modes
    g_a, g_b = (params.g_squared if mode in modes else 1.0 for mode in "ab")
    n_a, n_b = ((g - 1.0) * (2.0 * params.eta + 1.0) for g in (g_a, g_b))
    a, b = g_a * state.a + n_a, g_b * state.b + n_b
    k_a, k_b = g_a * state.a / a, g_b * state.b / b
    return CovarianceState(a, b, state.c * math.sqrt(g_a) * math.sqrt(g_b),
                           k_a * k_b * state.e + k_a * n_b / b + n_a / a)


def _nu_minus(state: CovarianceState) -> float:
    """Smaller symplectic eigenvalue of the partial transpose (p_b -> -p_b),
    2(ab - c^2) / ((a + b) + sqrt((a - b)^2 + 4 c^2)) (Adesso, Serafini and
    Illuminati, PRA 70, 022318 (2004)): every term is positive, and with
    the excess as e ab and the lengths divided by max(a, b) nothing cancels
    or overflows."""
    s = max(state.a, state.b)
    x, y = state.a / s, state.b / s
    return 2.0 * state.e * min(state.a, state.b) / (x + y + math.hypot(x - y, 2.0 * state.c / s))


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
