"""Named invariant checks of the amplifier's closed forms, its exact channel,
its action on the Husimi Q function (Q evaluated by ``noonamp.husimi``, the
laws computed here) and the Gaussian thresholds.  The closed forms are
checked at every bath parameter against two independent references: the
master-equation oracle and the exact channel applied to the NOON input.

Each check takes its grid as arguments and returns a ``CheckResult``: the
measured metric, the bound it is held to, whether it passed and a line of
detail.  ``battery`` runs every check on the quick grids of
``noonamp verify``; the acceptance suite calls the same functions on its
full grids.

The library is called through its modules (``channel.amplify_noon``, never
a by-value import), so rebinding a module attribute, as fault injection
and tracing do, reaches every call made here.
"""

import dataclasses
import math

import numpy as np

from . import channel, fock, gaussian, husimi, lindblad, negativity

MODES = (channel.MODE_SYMMETRIC, channel.MODE_ASYMMETRIC_A)


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One check's outcome.  ``passed`` holds ``metric`` against ``bound``
    and any side condition that ``detail`` names; ``metric`` and ``bound``
    are None when the check raised before measuring anything."""

    passed: bool
    metric: float | None
    bound: float | None
    detail: str


def _amplified(n_photons: int, g_squared: float, mode: str, policy: channel.CutoffPolicy,
               min_cutoff: int = 0) -> fock.TwoModeState:
    """Closed-form state at ``policy``'s cutoffs, raised to ``min_cutoff``."""
    spec = fock.NoonSpec(n_photons)
    params = channel.AmplifierParams(g_squared=g_squared, mode_config=mode)
    c = channel.select_cutoffs(spec, params, policy)
    cutoffs = fock.ModeCutoffs(max(c.cutoff_a, min_cutoff), max(c.cutoff_b, min_cutoff))
    return channel.amplify_noon(spec, params, cutoffs)


def oracle_distance(state: fock.TwoModeState, spec: fock.NoonSpec,
                    params: channel.AmplifierParams) -> float:
    """Trace distance from ``state`` to the NOON input propagated by the
    master equation (``lindblad.evolve``, same ``params``) at the state's
    cutoffs.  The propagation is exact on the truncated space, so what
    remains is rounding (about 1e-15 against the closed forms) and, at
    eta > 0, the weight that loss brings back down from past the cutoffs,
    which the closed forms keep and the truncated generator cannot."""
    evolved = lindblad.evolve(fock.build_noon(spec, state.cutoffs), params)
    return fock.trace_distance(state, evolved)


def unit_gain_negativity(photon_numbers, policy, method="block") -> CheckResult:
    """At unit gain every NOON state keeps E_N = 1, in both channel modes."""
    worst = max(abs(negativity.log_negativity(_amplified(n, 1.0, mode, policy),
                                              method).log_negativity - 1.0)
                for n in photon_numbers for mode in MODES)
    return CheckResult(worst <= 1e-9, worst, 1e-9, f"max |E_N - 1| = {worst:.3e}")


def vacuum_thermal(cutoff: int) -> CheckResult:
    """Vacuum at gain 2 becomes the thermal law p_n = 2^-(n+1): the two-mode
    vacuum sent through ``channel.amplify_state`` has the thermal product
    populations, with mode b left in vacuum when only mode a is amplified.
    Side condition: mode a's mean photon number is 1 within 1e-10."""
    thermal = 0.5 ** (np.arange(cutoff) + 1)
    vacuum = fock.TwoModeState.from_entries(fock.ModeCutoffs(cutoff, cutoff), [0], [0], [1.0])
    pop_err = mean_err = 0.0
    for mode, law_b in ((channel.MODE_SYMMETRIC, thermal),
                        (channel.MODE_ASYMMETRIC_A, np.eye(cutoff)[0])):
        params = channel.AmplifierParams(2.0, mode_config=mode)
        pops = channel.amplify_state(vacuum, params).populations()
        pop_err = max(pop_err, float(np.abs(pops - np.outer(thermal, law_b)).max()))
        mean_err = max(mean_err, abs(float(np.arange(cutoff) @ pops.sum(axis=1)) - 1.0))
    return CheckResult(mean_err <= 1e-10 and pop_err <= 1e-12, pop_err, 1e-12,
                       f"population err {pop_err:.3e}, mean err {mean_err:.3e}")


def closed_form_vs_oracle(modes, etas, n_photons: int, g_squared: float, policy) -> CheckResult:
    """The closed forms match direct integration of the master equation to
    1e-9 at each eta in ``etas`` (measured at eta = 0: at most 2e-15)."""
    spec = fock.NoonSpec(n_photons)
    worst = 0.0
    for mode in modes:
        for eta in etas:
            params = channel.AmplifierParams(g_squared=g_squared, eta=eta, mode_config=mode)
            cutoffs = channel.select_cutoffs(spec, params, policy)
            worst = max(worst, oracle_distance(channel.amplify_noon(spec, params, cutoffs),
                                               spec, params))
    return CheckResult(worst <= 1e-9, worst, 1e-9, f"max trace distance {worst:.3e}")


def map_vs_closed_form(points, policy) -> CheckResult:
    """The exact channel applied to the NOON input reproduces the closed
    forms at every (N, G^2, eta) point, both modes: at most 1e-15 per stored
    entry (infinite if they hold different phase sectors); side condition:
    trace_deficit equal within 1e-14."""
    worst = deficit_gap = 0.0
    for n, g2, eta in points:
        spec = fock.NoonSpec(n)
        for mode in MODES:
            params = channel.AmplifierParams(g_squared=g2, eta=eta, mode_config=mode)
            cutoffs = channel.select_cutoffs(spec, params, policy)
            closed = channel.amplify_noon(spec, params, cutoffs)
            mapped = channel.amplify_state(fock.build_noon(spec, cutoffs), params)
            same = (np.array_equal(closed.k_a, mapped.k_a)
                    and np.array_equal(closed.k_b, mapped.k_b))
            worst = max(worst, float(np.abs(closed.x - mapped.x).max(initial=0.0))
                        if same else math.inf)
            deficit_gap = max(deficit_gap, abs(closed.trace_deficit - mapped.trace_deficit))
    return CheckResult(worst <= 1e-15 and deficit_gap <= 1e-14, worst, 1e-15,
                       f"max entry gap {worst:.3e}, max trace_deficit gap {deficit_gap:.3e}")


def method_agreement(points, policy) -> CheckResult:
    """Dense and block negativity agree at every (N, G^2) point, both modes."""
    worst, worst_at = 0.0, None
    for n, g2 in points:
        for mode in MODES:
            state = _amplified(n, g2, mode, policy)
            gap = abs(negativity.log_negativity_dense(state).log_negativity
                      - negativity.log_negativity_block(state).log_negativity)
            if gap > worst:
                worst, worst_at = gap, (n, mode, g2)
    return CheckResult(worst <= 1e-9, worst, 1e-9,
                       f"max |dense - block| = {worst:.3e} at {worst_at}")


def scaling_law(modes, n_photons: int, gains, policy) -> CheckResult:
    """At eta = 0 the amplifier acts on Q by argument scaling: each amplified
    mode's argument is divided by G and Q scaled by 1/G^2, so
    Q_out(a, b) = Q_in(a/G, b/G)/G^4 with both modes amplified and
    Q_in(a/G, b)/G^2 with mode a only.  The metric is the worst violation on
    a radius-2 disk of coherent amplitudes (cutoffs at least 32 per mode,
    the NOON input held at the amplified state's cutoffs)."""
    mesh, _ = husimi.square_mesh(2.0 / math.sqrt(2.0), 9)
    grid = husimi.QGrid(mesh, mesh)
    worst = 0.0
    for g2 in gains:
        g = math.sqrt(g2)
        for mode in modes:
            state_out = _amplified(n_photons, g2, mode, policy, min_cutoff=32)
            state_in = fock.build_noon(fock.NoonSpec(n_photons), state_out.cutoffs)
            amplified = channel.AmplifierParams(g2, mode_config=mode).amplified_modes
            q_out = husimi.q_evaluate(state_out, grid).values
            scaled = husimi.QGrid(mesh / g if "a" in amplified else mesh,
                                  mesh / g if "b" in amplified else mesh)
            scale = 1.0 / g2 ** len(amplified)
            q_in = husimi.q_evaluate(state_in, scaled).values
            worst = max(worst, float(np.max(np.abs(q_out - scale * q_in))))
    return CheckResult(worst < 1e-8, worst, 1e-8, f"max grid error {worst:.3e}")


def _noon_zeros(n_photons: int, g_squared: float) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of the N-photon NOON state's Q, where a^N + b^N = 0, stretched
    by the gain: the pairs (G a, G a e^{i pi (2k+1)/N}) for a in (0.6, 1.0)
    and k = 0 .. N-1."""
    g = math.sqrt(g_squared)
    pairs = [(g * a, g * a * np.exp(1j * math.pi * (2 * k + 1) / n_photons))
             for a in (0.6, 1.0) for k in range(n_photons)]
    alphas, betas = zip(*pairs)
    return np.asarray(alphas, dtype=np.complex128), np.asarray(betas, dtype=np.complex128)


def zero_locus(points, policy) -> CheckResult:
    """At eta = 0 amplification stretches the zeros of Q by G and never
    fills them in (at eta > 0 the added noise does).  At each (N, G^2)
    point, Q of the state amplified on both modes stays below 1e-12 of its
    maximum over an 11 x 11 grid at every stretched zero and above 1e-6 of
    it at control points whose beta is 1.05 times larger; the metric counts
    the points where it does not."""
    perturb = 1.05
    points = list(points)
    failed = 0
    for n, g2 in points:
        alphas, betas = _noon_zeros(n, g2)
        # |alpha| = |beta| on the zero set, so the controls' betas set the cutoff
        need = int(4.0 * float(np.max(np.abs(betas) ** 2, initial=0.0)) * perturb**2) + 1
        state = _amplified(n, g2, channel.MODE_SYMMETRIC, policy, min_cutoff=need)
        q_max = float(husimi.q_evaluate(
            state, husimi.default_grid_for_state(state, points=11)).values.max())
        q_zero = husimi.q_pairs(state, alphas, betas)
        q_ctrl = husimi.q_pairs(state, alphas, betas * perturb)
        # six orders of magnitude lie between the zeros and the controls
        failed += not (np.all(q_zero < 1e-12 * q_max) and np.all(q_ctrl > 1e-6 * q_max))
    held = len(points) - failed
    return CheckResult(failed == 0, float(failed), 0.0,
                       f"{held}/{len(points)} (N, G2) combinations hold")


def gaussian_thresholds(symmetric_points, asymmetric_etas, open_ended_gains) -> CheckResult:
    """Bisected entanglement-breaking gains match the closed forms: both
    modes at each (r, eta), mode a only at r = 0.5 for each eta.  Side
    condition: with mode a only and eta = 0 the r = 0.5 squeezed vacuum
    stays entangled at every gain in ``open_ended_gains``."""
    sym_err = max(abs(gaussian.threshold_bisection(gaussian.SqueezingSpec(r), eta)
                      - gaussian.threshold_symmetric(gaussian.SqueezingSpec(r), eta))
                  for r, eta in symmetric_points)
    spec = gaussian.SqueezingSpec(0.5)
    asym_err = max(abs(gaussian.threshold_bisection(spec, eta, channel.MODE_ASYMMETRIC_A)
                       - gaussian.threshold_asymmetric(eta)) for eta in asymmetric_etas)
    base = gaussian.tmsv_covariance(spec)
    open_ended = min(gaussian.gaussian_log_negativity(gaussian.amplify_covariance(
        base, channel.AmplifierParams(g2, mode_config=channel.MODE_ASYMMETRIC_A)))
        for g2 in open_ended_gains)
    worst = max(sym_err, asym_err)
    return CheckResult(worst <= 1e-6 and open_ended > 0.0, worst, 1e-6,
                       f"sym err {sym_err:.3e}, asym err {asym_err:.3e}, min E_N up to "
                       f"G2={max(open_ended_gains):g}: {open_ended:.4f}")


def trace_deficit_budget(n_photons: int, g_squared: float, policy) -> CheckResult:
    """The symmetric state's lost weight stays under 100 tail_tol."""
    deficit = _amplified(n_photons, g_squared, channel.MODE_SYMMETRIC, policy).trace_deficit
    budget = 100.0 * policy.tail_tol
    return CheckResult(deficit < budget, deficit, budget,
                       f"trace_deficit {deficit:.3e} vs budget {budget:.3e}")


def monotone(curves) -> CheckResult:
    """E_N never rises with gain along any of ``curves``."""
    rise = max([0.0] + [b - a for curve in curves for a, b in zip(curve, curve[1:])])
    return CheckResult(rise <= 1e-9, rise, 1e-9, f"largest rise along a curve {rise:.3e}")


def asymmetric_dominates(pairs) -> CheckResult:
    """Amplifying one mode keeps at least the E_N of amplifying both;
    ``pairs`` holds (symmetric E_N, asymmetric E_N) at equal N and G^2."""
    excess = max([0.0] + [sym - asym for sym, asym in pairs])
    return CheckResult(excess <= 1e-9, excess, 1e-9, f"largest symmetric excess {excess:.3e}")


def monotone_and_ordering(n_photons: int, gains, policy) -> CheckResult:
    """``monotone`` and ``asymmetric_dominates`` on one N's block-method curves."""
    sym, asym = ([negativity.log_negativity_block(
        _amplified(n_photons, g2, mode, policy)).log_negativity for g2 in gains]
        for mode in MODES)
    parts = (monotone([sym, asym]), asymmetric_dominates(zip(sym, asym)))
    return CheckResult(all(p.passed for p in parts), max(p.metric for p in parts), 1e-9,
                       f"sym {['%.4f' % v for v in sym]}, asym {['%.4f' % v for v in asym]}")


def _run(check, *args) -> CheckResult:
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - the battery reports, not raises
        return CheckResult(False, None, None, f"{type(exc).__name__}: {exc}")


def battery(policy: channel.CutoffPolicy) -> dict[str, CheckResult]:
    """The ``noonamp verify`` checks on their quick grids, by name in a
    fixed order; a check that raises counts as failed."""
    sym, asym = (channel.MODE_SYMMETRIC,), (channel.MODE_ASYMMETRIC_A,)
    quick = (
        ("unit_gain_negativity", unit_gain_negativity, (1, 2), policy),
        ("vacuum_thermal", vacuum_thermal, 50),
        ("oracle_symmetric", closed_form_vs_oracle, sym, (0.0,), 2, 1.3, policy),
        ("oracle_asymmetric", closed_form_vs_oracle, asym, (0.0,), 2, 1.3, policy),
        ("map_vs_closed_form", map_vs_closed_form, ((2, 1.5, 0.0), (2, 1.5, 0.5)), policy),
        ("method_agreement", method_agreement, ((2, 1.5), (2, 2.0), (4, 1.5)), policy),
        ("scaling_law_symmetric", scaling_law, sym, 2, (1.5,), policy),
        ("scaling_law_asymmetric", scaling_law, asym, 2, (1.5,), policy),
        ("zero_locus", zero_locus, ((2, 1.5),), policy),
        ("gaussian_thresholds", gaussian_thresholds, ((0.5, 0.0), (0.5, 0.5)), (0.5,),
         np.linspace(1.0, 10.0, 19)),
        ("trace_deficit_budget", trace_deficit_budget, 2, 2.0, policy),
        ("monotone_and_ordering", monotone_and_ordering, 2, (1.0, 1.25, 1.5, 1.75, 2.0),
         policy),
    )
    return {name: _run(check, *args) for name, check, *args in quick}
