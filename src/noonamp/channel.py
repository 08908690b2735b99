"""Closed-form output states of the phase-insensitive amplifier.

A NOON input with both modes amplified becomes a two-mode photon-added
thermal state; with only mode a amplified, the b labels stay pinned to
{0, N}.  Both constructors populate exactly four term families

    diag   c(n,m) (n+N)!/n!               at |n+N, m>
    diag   c(n,m) (m+N)!/m!               at |n, m+N>        (symmetric)
    diag   c(n)   g2^N N!                 at |n, N>          (asymmetric)
    offd   c(.)   sqrt(product of above)  coupling the two diagonal families

with geometric weights c ~ q^(n+m), q = (g2-1)/g2.  Coefficients are
assembled in log space: factorial ratios like (n+N)!/n! overflow doubles
long before the cutoffs needed at N=6 and g2=3.  The families go straight
into the state's sparse storage as (row, col, value) triplets; no d x d
array is ever allocated.

Closed forms exist only for the fully inverted amplifier (eta = 0);
requests with eta > 0 are rejected and belong to the lindblad integrator.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import gammaln

from . import config
from .fock import ModeCutoffs, NoonSpec, TwoModeState, build_noon

MODE_SYMMETRIC = "symmetric"
MODE_ASYMMETRIC_A = "asymmetric_a_only"
_MODE_CONFIGS = (MODE_SYMMETRIC, MODE_ASYMMETRIC_A)


@dataclass(frozen=True)
class AmplifierParams:
    """Intensity gain g_squared = G^2 and bath parameter eta = N2/(N1-N2)."""

    g_squared: float
    eta: float = 0.0
    mode_config: str = MODE_SYMMETRIC

    def __post_init__(self):
        if self.g_squared < 1.0:
            raise ValueError("g_squared must be >= 1")
        if self.eta < 0.0:
            raise ValueError("eta must be >= 0")
        if self.mode_config not in _MODE_CONFIGS:
            raise ValueError(f"mode_config must be one of {_MODE_CONFIGS}")

    @property
    def amplified_modes(self) -> tuple[str, ...]:
        """The modes the gain acts on, named as in ``lindblad.LindbladParams``."""
        return ("a", "b") if self.mode_config == MODE_SYMMETRIC else ("a",)


@dataclass(frozen=True)
class CutoffPolicy:
    """How to pick Fock cutoffs: tail-mass driven (auto) or caller-fixed."""

    mode: str = "auto"
    tail_tol: float = config.DEFAULT_TAIL_TOL
    fixed_cutoffs: ModeCutoffs | None = None

    def __post_init__(self):
        if self.mode not in ("auto", "fixed"):
            raise ValueError("mode must be 'auto' or 'fixed'")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError("tail_tol must be in (0, 1)")
        if self.mode == "fixed" and self.fixed_cutoffs is None:
            raise ValueError("fixed mode requires fixed_cutoffs")


@dataclass(frozen=True)
class ThermalDistribution:
    """Diagonal photon-number law of an amplified vacuum."""

    probs: np.ndarray
    tail_mass: float

    @property
    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)


def amplified_vacuum(g_squared: float, cutoff: int) -> ThermalDistribution:
    """Photon statistics of vacuum after gain g_squared: p_n = (1/g2)(1 - 1/g2)^n."""
    if g_squared < 1.0:
        raise ValueError("g_squared must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if g_squared == 1.0:
        probs = np.zeros(cutoff)
        probs[0] = 1.0
        return ThermalDistribution(probs=probs, tail_mass=0.0)
    q = 1.0 - 1.0 / g_squared
    probs = (1.0 / g_squared) * q ** np.arange(cutoff)
    return ThermalDistribution(probs=probs, tail_mass=float(q**cutoff))


def _amplified_mode_cutoff(n_photons: int, g_squared: float, tail_tol: float) -> int:
    """Smallest retained dimension keeping the neglected geometric weight
    below tail_tol, inflated by +N for the (n+N)!/n! polynomial factor."""
    if g_squared == 1.0:
        return n_photons + 1
    q = 1.0 - 1.0 / g_squared
    geometric = math.ceil(math.log(tail_tol * (1.0 - q)) / math.log(q))
    return n_photons + max(1, geometric) + n_photons


def select_cutoffs(spec: NoonSpec, params: AmplifierParams, policy: CutoffPolicy) -> ModeCutoffs:
    """Cutoffs adequate for the amplified NOON state under ``policy``."""
    if policy.mode == "fixed":
        return policy.fixed_cutoffs
    n = spec.n_photons
    amp = _amplified_mode_cutoff(n, params.g_squared, policy.tail_tol)
    if params.mode_config == MODE_SYMMETRIC:
        cutoff_a = cutoff_b = amp
    else:
        cutoff_a, cutoff_b = amp, n + 1
    if cutoff_a * cutoff_b > config.MAX_TOTAL_DIMENSION:
        raise ValueError(
            f"auto cutoffs {cutoff_a}x{cutoff_b} exceed the dimension cap "
            f"{config.MAX_TOTAL_DIMENSION}; raise tail_tol (currently "
            f"{policy.tail_tol:g}) or lower the gain"
        )
    return ModeCutoffs(cutoff_a, cutoff_b)


def _require_closed_form(params: AmplifierParams, expected_mode: str):
    if params.mode_config != expected_mode:
        raise ValueError(f"params.mode_config must be '{expected_mode}'")
    if params.eta != 0.0:
        raise ValueError(
            "no closed form for eta != 0; integrate the master equation instead "
            "(lindblad.evolve)"
        )


def amplify_noon_symmetric(spec: NoonSpec, params: AmplifierParams,
                           cutoffs: ModeCutoffs) -> TwoModeState:
    """NOON state after equal gain on both modes, truncated to ``cutoffs``.

    At g_squared = 1 this is exactly the input NOON state.  The recorded
    trace_deficit is the geometric weight lost to truncation.
    """
    _require_closed_form(params, MODE_SYMMETRIC)
    n_ph = spec.n_photons
    if cutoffs.cutoff_a <= n_ph or cutoffs.cutoff_b <= n_ph:
        raise ValueError("cutoffs too small for the photon number")
    g2 = params.g_squared
    if g2 == 1.0:
        return build_noon(spec, cutoffs)

    da, db = cutoffs.cutoff_a, cutoffs.cutoff_b
    log_q = math.log(g2 - 1.0) - math.log(g2)
    # prefactor 1 / (2 N! g2^(N+2))
    log_pref = -(math.log(2.0) + gammaln(n_ph + 1) + (n_ph + 2) * math.log(g2))
    lf = gammaln(np.arange(max(da, db) + 1) + 1.0)

    n_shift = np.arange(da - n_ph)   # labels n with n + N < cutoff_a
    m_shift = np.arange(db - n_ph)
    n_all = np.arange(da)
    m_all = np.arange(db)

    # diagonal family |n+N, m>
    up_a = cutoffs.flat_index((n_shift + n_ph)[:, None], m_all[None, :])
    w_up_a = np.exp(log_pref + (n_shift[:, None] + m_all[None, :]) * log_q
                    + (lf[n_shift + n_ph] - lf[n_shift])[:, None])

    # diagonal family |n, m+N>; where it meets the first family the two add
    up_b = cutoffs.flat_index(n_all[:, None], (m_shift + n_ph)[None, :])
    w_up_b = np.exp(log_pref + (n_all[:, None] + m_shift[None, :]) * log_q
                    + (lf[m_shift + n_ph] - lf[m_shift])[None, :])

    # off-diagonal pair coupling |n+N, m> <-> |n, m+N>
    left = cutoffs.flat_index((n_shift + n_ph)[:, None], m_shift[None, :])
    right = cutoffs.flat_index(n_shift[:, None], (m_shift + n_ph)[None, :])
    w_off = np.exp(log_pref + (n_shift[:, None] + m_shift[None, :]) * log_q
                   + 0.5 * ((lf[n_shift + n_ph] - lf[n_shift])[:, None]
                            + (lf[m_shift + n_ph] - lf[m_shift])[None, :]))

    return _from_families(cutoffs, (up_a, up_a, w_up_a), (up_b, up_b, w_up_b),
                          (left, right, w_off), (right, left, w_off))


def _from_families(cutoffs: ModeCutoffs, *families) -> TwoModeState:
    """State from (rows, cols, values) term families, summed where they meet."""
    rows, cols, vals = (np.concatenate([np.ravel(f[k]) for f in families])
                        for k in range(3))
    return TwoModeState.from_entries(cutoffs, rows, cols, vals)


def amplify_noon_asymmetric(spec: NoonSpec, params: AmplifierParams,
                            cutoffs: ModeCutoffs) -> TwoModeState:
    """NOON state after gain on mode a only; mode-b labels stay in {0, N}."""
    _require_closed_form(params, MODE_ASYMMETRIC_A)
    n_ph = spec.n_photons
    if cutoffs.cutoff_a <= n_ph or cutoffs.cutoff_b < n_ph + 1:
        raise ValueError("cutoffs too small for the photon number")
    g2 = params.g_squared
    if g2 == 1.0:
        return build_noon(spec, cutoffs)

    da = cutoffs.cutoff_a
    log_q = math.log(g2 - 1.0) - math.log(g2)
    log_g2 = math.log(g2)
    lf_n = gammaln(np.arange(da + 1) + 1.0)
    lgN = float(gammaln(n_ph + 1))
    # prefactor 1 / (2 N! g2^(N+1))
    log_pref = -(math.log(2.0) + lgN + (n_ph + 1) * log_g2)

    n_shift = np.arange(da - n_ph)
    n_all = np.arange(da)

    # diagonal family |n+N, 0>
    up_a = cutoffs.flat_index(n_shift + n_ph, 0)
    w_up_a = np.exp(log_pref + n_shift * log_q + (lf_n[n_shift + n_ph] - lf_n[n_shift]))

    # diagonal family |n, N>, weight g2^N N!
    at_n = cutoffs.flat_index(n_all, n_ph)
    w_at_n = np.exp(log_pref + n_all * log_q + n_ph * log_g2 + lgN)

    # off-diagonal pair |n+N, 0> <-> |n, N>, weight G^N sqrt((n+N)!/n! N!)
    right = cutoffs.flat_index(n_shift, n_ph)
    w_off = np.exp(log_pref + n_shift * log_q + 0.5 * n_ph * log_g2
                   + 0.5 * (lf_n[n_shift + n_ph] - lf_n[n_shift] + lgN))

    return _from_families(cutoffs, (up_a, up_a, w_up_a), (at_n, at_n, w_at_n),
                          (up_a, right, w_off), (right, up_a, w_off))


def amplify_noon(spec: NoonSpec, params: AmplifierParams,
                 cutoffs: ModeCutoffs) -> TwoModeState:
    """Closed-form output state for ``params.mode_config``.

    The builder is looked up on this module at every call, so rebinding
    ``amplify_noon_symmetric`` or ``amplify_noon_asymmetric`` here (fault
    injection, tracing) reaches every caller of the dispatch.
    """
    if params.mode_config == MODE_SYMMETRIC:
        return amplify_noon_symmetric(spec, params, cutoffs)
    return amplify_noon_asymmetric(spec, params, cutoffs)


def photon_add_both(state: TwoModeState) -> TwoModeState:
    """Add one photon to each mode: normalize(adag bdag rho a b).

    Every stored entry at (n, m, p, q) moves to (n+1, m+1, p+1, q+1), scaled
    by sqrt((n+1)(m+1)(p+1)(q+1)); entries shifted past a cutoff are dropped.
    Normalization divides by the exact trace E[(n_a+1)(n_b+1)], so weight
    pushed past the top Fock level lands in the output's trace_deficit.
    Vacuum input maps to |1,1><1,1|; inputs whose entire weight would leave
    the truncated space are rejected.
    """
    c = state.cutoffs
    if c.cutoff_a < 2 or c.cutoff_b < 2:
        raise ValueError("photon addition needs cutoffs of at least 2 per mode")
    pops = state.populations()
    n_a = np.arange(c.cutoff_a, dtype=np.float64)
    n_b = np.arange(c.cutoff_b, dtype=np.float64)
    exact_trace = float(((n_a + 1.0)[:, None] * (n_b + 1.0)[None, :] * pops).sum())

    da, db = c.cutoff_a, c.cutoff_b
    coo = state.csr.tocoo()
    n, m = np.divmod(coo.row, db)
    p, q = np.divmod(coo.col, db)
    keep = (n + 1 < da) & (m + 1 < db) & (p + 1 < da) & (q + 1 < db)
    n, m, p, q = n[keep] + 1, m[keep] + 1, p[keep] + 1, q[keep] + 1
    sa = np.sqrt(n_a)
    sb = np.sqrt(n_b)
    values = sa[n] * sb[m] * sa[p] * sb[q] * coo.data[keep]
    rows, cols = c.flat_index(n, m), c.flat_index(p, q)

    kept_trace = float(values[rows == cols].real.sum())
    if kept_trace <= config.ATOL_STRUCTURAL * max(exact_trace, 1.0):
        raise ValueError("photon addition leaves no weight inside the cutoffs")
    return TwoModeState.from_entries(c, rows, cols, values / exact_trace)
