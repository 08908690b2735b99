"""The phase-insensitive amplifier: closed-form NOON outputs and the exact channel.

An amplified mode at bath parameter eta is a quantum-limited attenuator of
transmissivity tau = G^2/g' followed by a quantum-limited amplifier of gain
g' = 1 + (G^2 - 1)(1 + eta) (Caruso, Giovannetti & Holevo, NJP 8, 310
(2006)); at eta = 0, g' = G^2 and the attenuator is the identity.

One builder makes the NOON output for both mode configurations and every
eta from per-mode shares, q = (g'-1)/g'.  An amplified mode sends |0><0| to
the thermal state q^n at |n>, and |N><N| to sum_l C(N, l) tau^l
(1-tau)^(N-l) times the photon-added thermal state q^n (n+l)!/n! at |n+l>
(Agarwal & Tara, PRA 46, 485 (1992)), only l = N at eta = 0; loss keeps
tau^(N/2) of the coherence |N><0|, which then becomes the geometric mean of
the l = N and vacuum shares.  A mode the gain does not act on keeps
g'^N N! at |N>, 1 at |0> and their geometric mean.  Under the prefactor
1 / (2 N! g'^(N+M)), M amplified modes, the diagonal families are a's
|N><N| share times b's |0><0| share and a's |0><0| times b's |N><N|, the
coupling a's coherence times b's, all assembled in log space (factorial
ratios like (n+N)!/n! overflow doubles at the cutoffs of N=6, g'=3) and
written straight into the phase sectors (0, 0) and (N, -N).

``amplify_state`` applies the same channel to any state through its Kraus
operators (Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)), and is the
closed form's independent check.  Both Kraus families keep every phase
sector (n - p, m - q), so on the state's sector stack the channel is one
matrix per amplified mode and distinct |n - p|, applied by batched matrix
products.  Weight carried past a cutoff is dropped and lands in
``trace_deficit`` exactly; there is no step size and nothing to monitor.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import config
from .fock import (ModeCutoffs, NoonSpec, TwoModeState, build_noon, log_factorials,
                   noon_sectors)

MODE_SYMMETRIC = "symmetric"
MODE_ASYMMETRIC_A = "asymmetric_a_only"
_MODE_CONFIGS = (MODE_SYMMETRIC, MODE_ASYMMETRIC_A)


@dataclass(frozen=True)
class AmplifierParams:
    """The amplifier, as every layer takes it (closed forms, exact map,
    master-equation oracle, covariance channel): intensity gain
    g_squared = G^2, bath parameter eta = N2/(N1-N2) and the modes the gain
    acts on."""

    g_squared: float
    eta: float = 0.0
    mode_config: str = MODE_SYMMETRIC

    def __post_init__(self):
        if not (math.isfinite(self.g_squared) and self.g_squared >= 1.0):
            raise ValueError("g_squared must be finite and >= 1")
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError("eta must be finite and >= 0")
        if self.mode_config not in _MODE_CONFIGS:
            raise ValueError(f"mode_config must be one of {_MODE_CONFIGS}")
        if not math.isfinite(self.stage_gain):
            raise ValueError("amplifier-stage gain g' = 1 + (G^2 - 1)(1 + eta) is not finite")

    @property
    def stage_gain(self) -> float:
        """Gain g' = 1 + (G^2 - 1)(1 + eta) of the quantum-limited amplifier
        stage; exactly g_squared at eta = 0."""
        if self.eta == 0.0:
            return self.g_squared
        return 1.0 + (self.g_squared - 1.0) * (1.0 + self.eta)

    @property
    def amplified_modes(self) -> tuple[str, ...]:
        """The modes the gain acts on: ("a", "b") or ("a",)."""
        return ("a", "b") if self.mode_config == MODE_SYMMETRIC else ("a",)


@dataclass(frozen=True)
class CutoffPolicy:
    """How to pick Fock cutoffs: ``fixed_cutoffs`` when given, otherwise the
    smallest keeping the neglected tail mass below ``tail_tol``."""

    tail_tol: float = config.DEFAULT_TAIL_TOL
    fixed_cutoffs: ModeCutoffs | None = None

    def __post_init__(self):
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError("tail_tol must be in (0, 1)")


def _amplified_mode_cutoff(n_photons: int, g_squared: float, tail_tol: float) -> int:
    """Smallest retained dimension keeping the neglected geometric weight
    below tail_tol, inflated by +N for the (n+N)!/n! polynomial factor."""
    if g_squared == 1.0:
        return n_photons + 1
    q = 1.0 - 1.0 / g_squared
    if q == 1.0:  # 1 - 1/g' rounds to 1: the geometric tail never decays
        raise ValueError(f"amplifier-stage gain g' = {g_squared:g} needs auto cutoffs "
                         f"past the dimension cap {config.MAX_TOTAL_DIMENSION}")
    geometric = math.ceil(math.log(tail_tol * (1.0 - q)) / math.log(q))
    return n_photons + max(1, geometric) + n_photons


def select_cutoffs(spec: NoonSpec, params: AmplifierParams, policy: CutoffPolicy) -> ModeCutoffs:
    """Cutoffs adequate for the amplified NOON state under ``policy``."""
    if policy.fixed_cutoffs is not None:
        return policy.fixed_cutoffs
    n = spec.n_photons
    amp = _amplified_mode_cutoff(n, params.stage_gain, policy.tail_tol)
    # a mode the gain does not act on holds 0 or N photons
    cutoff_a, cutoff_b = (amp if mode in params.amplified_modes else n + 1 for mode in "ab")
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


def _stage_logs(params: AmplifierParams) -> tuple[float, float, float]:
    """log g', log tau and log(1 - tau); the last two are 0 at eta = 0 (no loss)."""
    g2, log_g = params.g_squared, math.log(params.stage_gain)
    # summed as logs: the product (g2 - 1) eta underflows to 0 for subnormal eta
    log_loss = math.log(g2 - 1.0) + math.log(params.eta) - log_g if params.eta else 0.0
    return log_g, math.log(g2) - log_g, log_loss


def _mode_share(n_ph: int, dim: int, amplified: bool, lf: np.ndarray, logs, survivors,
                shape: tuple[int, ...]):
    """One mode's shares of |N><N|, |0><0| and the coherence |N><0| (see the
    module docstring), each as (positions, powers of q, scalar log weight,
    log-factorial weight); the |N><N| share is a tuple of them, one per
    number of photons in ``survivors`` that pass the loss stage.  Sector
    (N, -N) stores the coherence's |n+N><n| at n; ``logs`` is ``_stage_logs``.
    Arrays take ``shape``, so two modes' shares combine by broadcasting."""
    log_g, log_tau, log_loss = logs
    if not amplified:
        log_nf = float(lf[n_ph])
        return (((n_ph, 0, n_ph * log_g, log_nf),), (0, 0, 0.0, 0.0),
                (0, 0, 0.5 * n_ph * log_g, 0.5 * log_nf))
    n = np.arange(dim)

    def added(l):   # C(N, l) tau^l (1-tau)^(N-l) g'^(N-l) N!/l! and log (n+l)!/n!
        log_w = (l * log_tau + (n_ph - l) * (log_loss + log_g)
                 + 2.0 * (lf[n_ph] - lf[l]) - lf[n_ph - l])
        return (slice(l, dim), n[:dim - l].reshape(shape), log_w,
                (lf[l:dim] - lf[:dim - l]).reshape(shape))

    _, shift, log_w, log_ratio = added(n_ph)
    return (tuple(added(l) for l in survivors), (slice(0, dim), n.reshape(shape), 0.0, 0.0),
            (slice(0, dim - n_ph), shift, 0.5 * log_w, 0.5 * log_ratio))


def _noon_closed_form(spec: NoonSpec, params: AmplifierParams,
                      cutoffs: ModeCutoffs) -> TwoModeState:
    """The NOON state after gain on ``params.amplified_modes`` at bath
    ``params.eta``, built from the two modes' shares."""
    n_ph = spec.n_photons
    if cutoffs.cutoff_a <= n_ph or cutoffs.cutoff_b <= n_ph:
        raise ValueError("cutoffs too small for the photon number")
    if params.g_squared == 1.0:
        return build_noon(spec, cutoffs)

    dims = (cutoffs.cutoff_a, cutoffs.cutoff_b)
    logs = _stage_logs(params)
    log_q = math.log(params.stage_gain - 1.0) - logs[0]
    survivors = range(n_ph + 1) if params.eta else (n_ph,)
    lf = log_factorials(max(dims) + 1)
    modes = params.amplified_modes
    log_pref = -(math.log(2.0) + float(lf[n_ph]) + (n_ph + len(modes)) * logs[0])
    # a mode the gain does not act on fills single positions, and the other
    # mode's arrays then need no second axis
    shapes = ((-1, 1), (1, -1)) if len(modes) == 2 else ((-1,), (-1,))
    (photon_a, vacuum_a, coherence_a), (photon_b, vacuum_b, coherence_b) = (
        _mode_share(n_ph, dim, mode in modes, lf, logs, survivors, shape)
        for mode, dim, shape in zip("ab", dims, shapes))

    def weights(share_a, share_b):
        # the sum order (prefactor + q powers + scalar part) + factorial part
        # fixes the last bit of each entry, which the golden sweep pins
        _, pow_a, log_a, fact_a = share_a
        _, pow_b, log_b, fact_b = share_b
        return np.exp(log_pref + (pow_a + pow_b) * log_q + (log_a + log_b) + (fact_a + fact_b))

    diagonal, coupling = sectors = np.zeros((2,) + dims)
    # the two families meet where both modes hold N photons or more
    for term in photon_a:
        diagonal[term[0], vacuum_b[0]] += weights(term, vacuum_b)
    for term in photon_b:
        diagonal[vacuum_a[0], term[0]] += weights(vacuum_a, term)
    coupling[coherence_a[0], coherence_b[0]] = weights(coherence_a, coherence_b)
    return noon_sectors(cutoffs, n_ph, sectors)


def amplify_noon_symmetric(spec: NoonSpec, params: AmplifierParams,
                           cutoffs: ModeCutoffs) -> TwoModeState:
    """NOON state after equal gain on both modes, truncated to ``cutoffs``.

    At g_squared = 1 this is exactly the input NOON state.  The recorded
    trace_deficit is the weight lost to truncation.
    """
    _require_closed_form(params, MODE_SYMMETRIC)
    return _noon_closed_form(spec, params, cutoffs)


def amplify_noon_asymmetric(spec: NoonSpec, params: AmplifierParams,
                            cutoffs: ModeCutoffs) -> TwoModeState:
    """NOON state after gain on mode a only; mode-b labels stay in {0, N}."""
    _require_closed_form(params, MODE_ASYMMETRIC_A)
    return _noon_closed_form(spec, params, cutoffs)


def amplify_noon(spec: NoonSpec, params: AmplifierParams,
                 cutoffs: ModeCutoffs) -> TwoModeState:
    """Output state for ``params.mode_config``, at any eta.

    The builder is looked up on this module at every call, so rebinding
    ``amplify_noon_symmetric`` or ``amplify_noon_asymmetric`` here (fault
    injection, tracing) reaches every caller of the dispatch.
    """
    if params.mode_config == MODE_SYMMETRIC:
        return amplify_noon_symmetric(spec, params, cutoffs)
    return amplify_noon_asymmetric(spec, params, cutoffs)


def _mode_matrices(dim: int, ks: np.ndarray, params: AmplifierParams) -> np.ndarray:
    """The channel on one mode's sector diagonals: M[i, j', j] carries the
    entry at position j of a sector whose phase offset in this mode has
    magnitude ks[i] (rho[j + k, j] or its mirror) to position j'.

    Kraus terms moving l photons give sqrt(C(hi + k, l) C(hi, l)) with
    hi = max(j, j'): the amplifier of gain g' adds them, weighted by
    ((g'-1)/g')^l g'^-(j + k/2 + 1); the attenuator of transmissivity tau
    removes them, weighted by tau^(j' + k/2) (1 - tau)^l.  Positions at or
    past dim - k do not exist, so their rows and columns are zero.
    """
    k = ks[:, None, None]
    out, inp = np.arange(dim)[:, None], np.arange(dim)[None, :]
    hi, lo = np.maximum(out, inp), np.minimum(out, inp)
    steps = hi - lo
    inside = hi < dim - k
    lf = log_factorials(2 * dim)

    def log_binomial(n, l):
        # the closer pair of arguments first, so their large logs cancel early
        return (lf[n] - lf[np.maximum(l, n - l)]) - lf[np.minimum(l, n - l)]

    log_paths = 0.5 * (log_binomial(hi + k, steps) + log_binomial(hi, steps))

    # The stage logs are worked out here again rather than read from
    # _stage_logs.  This map is the closed form's independent check
    # (checks.map_vs_closed_form), and test_verify_detects_skewed_loss_stage
    # injects its fault into _stage_logs, relying on the map not sharing it.
    # Sharing them keeps every bit but would blind that test.
    g_amp, g2 = params.stage_gain, params.g_squared
    log_g = math.log(g_amp)
    log_amp = (log_paths + steps * (math.log(g_amp - 1.0) - log_g)
               - (inp + 0.5 * k + 1.0) * log_g)
    mats = np.exp(np.where(inside & (out >= inp), log_amp, -np.inf))
    if params.eta == 0.0:
        return mats
    log_tau = math.log(g2) - log_g
    # summed as logs: the product (g2 - 1) eta underflows to 0 for subnormal eta
    log_loss = math.log(g2 - 1.0) + math.log(params.eta) - log_g
    log_att = log_paths + (out + 0.5 * k) * log_tau + steps * log_loss
    return mats @ np.exp(np.where(inside & (out <= inp), log_att, -np.inf))


def amplify_state(state: TwoModeState, params: AmplifierParams) -> TwoModeState:
    """The amplifier channel applied exactly to ``state``, at its cutoffs.

    Every phase sector (k_a, k_b) maps to itself: x[s] -> A x[s] B^T with
    A the mode-a matrix for |k_a| and B the mode-b matrix for |k_b| (the
    identity for a mode the gain does not act on).  Weight carried past a
    cutoff is dropped, so the output's trace_deficit exceeds the input's by
    exactly the weight lost.  At unit gain the state is returned as it is.
    """
    if params.g_squared == 1.0:
        return state
    c = state.cutoffs
    k_a, k_b, x = state.k_a, state.k_b, state.x
    for mode, ks, dim in (("a", k_a, c.cutoff_a), ("b", k_b, c.cutoff_b)):
        if mode not in params.amplified_modes:
            continue
        distinct, at = np.unique(np.abs(ks), return_inverse=True)
        mats = _mode_matrices(dim, distinct, params)[at]
        x = mats @ x if mode == "a" else x @ mats.transpose(0, 2, 1)
    return TwoModeState(c, k_a, k_b, x)


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

    # an entry moves one position along its sector's diagonal in each mode;
    # positions moved past the sector's end are dropped
    root_n, root_p = _raised_roots(state.k_a, c.cutoff_a)
    root_m, root_q = _raised_roots(state.k_b, c.cutoff_b)
    added = np.zeros_like(state.x)
    added[:, 1:, 1:] = (root_n[:, :, None] * root_m[:, None, :] * root_p[:, :, None]
                        * root_q[:, None, :] * state.x[:, :-1, :-1])
    kept_trace = float(added[0].real.sum())
    if kept_trace <= config.ATOL_STRUCTURAL * max(exact_trace, 1.0):
        raise ValueError("photon addition leaves no weight inside the cutoffs")
    return TwoModeState(c, state.k_a, state.k_b, added / exact_trace)


def _raised_roots(ks: np.ndarray, dim: int):
    """sqrt(n + 1) and sqrt(p + 1) for the entries at positions j = 0 ..
    dim - 2 of the sectors whose phase offsets in one mode are ``ks``
    (n = j + max(k, 0), p = j + max(-k, 0)); zero where n + 1 or p + 1
    leaves the cutoff."""
    j = np.arange(1, dim)
    n = j + np.maximum(ks, 0)[:, None]
    p = j + np.maximum(-ks, 0)[:, None]
    inside = np.maximum(n, p) < dim
    return (np.where(inside, np.sqrt(n.astype(np.float64)), 0.0),
            np.where(inside, np.sqrt(p.astype(np.float64)), 0.0))
