"""Named invariant checks of the amplifier's closed forms and thresholds.

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
    """Trace distance from ``state`` to the NOON input integrated by the
    master equation up to ``params.g_squared``, at the state's cutoffs."""
    lparams = lindblad.LindbladParams(kappa_n1=1.0, kappa_n2=0.0,
                                      amplified_modes=params.amplified_modes)
    evolved = lindblad.evolve(fock.build_noon(spec, state.cutoffs), lparams,
                              lindblad.IntegratorConfig(target_g_squared=params.g_squared))
    return fock.trace_distance(state, evolved)


def unit_gain_negativity(photon_numbers, policy, method="block") -> CheckResult:
    """At unit gain every NOON state keeps E_N = 1, in both channel modes."""
    worst = max(abs(negativity.log_negativity(_amplified(n, 1.0, mode, policy),
                                              method).log_negativity - 1.0)
                for n in photon_numbers for mode in MODES)
    return CheckResult(worst <= 1e-9, worst, 1e-9, f"max |E_N - 1| = {worst:.3e}")


def vacuum_thermal(cutoff: int) -> CheckResult:
    """Vacuum at gain 2 becomes the thermal law p_n = 2^-(n+1); side
    condition: its mean is 1 within 1e-10."""
    dist = channel.amplified_vacuum(2.0, cutoff)
    mean_err = abs(dist.mean - 1.0)
    pop_err = float(np.abs(dist.probs - 0.5 ** (np.arange(cutoff) + 1)).max())
    return CheckResult(mean_err <= 1e-10 and pop_err <= 1e-12, pop_err, 1e-12,
                       f"population err {pop_err:.3e}, mean err {mean_err:.3e}")


def closed_form_vs_oracle(modes, n_photons: int, g_squared: float, policy) -> CheckResult:
    """The closed forms match direct integration of the master equation."""
    spec = fock.NoonSpec(n_photons)
    worst = 0.0
    for mode in modes:
        params = channel.AmplifierParams(g_squared=g_squared, mode_config=mode)
        cutoffs = channel.select_cutoffs(spec, params, policy)
        worst = max(worst, oracle_distance(channel.amplify_noon(spec, params, cutoffs),
                                           spec, params))
    return CheckResult(worst <= 1e-6, worst, 1e-6, f"max trace distance {worst:.3e}")


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
    """The amplified Q function is the input's, rescaled by the gain, on a
    radius-2 disk of coherent amplitudes (cutoffs at least 32 per mode)."""
    mesh, _ = husimi.square_mesh(2.0 / math.sqrt(2.0), 9)
    grid = husimi.QGrid(mesh, mesh.copy())
    worst = 0.0
    for g2 in gains:
        for mode in modes:
            state_out = _amplified(n_photons, g2, mode, policy, min_cutoff=32)
            state_in = fock.build_noon(fock.NoonSpec(n_photons), state_out.cutoffs)
            worst = max(worst, husimi.check_scaling_law(state_in, state_out, g2, mode, grid))
    return CheckResult(worst < 1e-8, worst, 1e-8, f"max grid error {worst:.3e}")


def zero_locus(points) -> CheckResult:
    """Amplification keeps the zeros of Q at every (N, G^2) point; the
    metric counts the points where it does not."""
    held = [husimi.check_zero_locus(fock.NoonSpec(n), g2, husimi.noon_zero_candidates(n, g2))
            for n, g2 in points]
    failed = len(held) - sum(held)
    return CheckResult(failed == 0, float(failed), 0.0,
                       f"{sum(held)}/{len(held)} (N, G2) combinations hold")


def gaussian_thresholds(symmetric_points, asymmetric_etas, open_ended_gains) -> CheckResult:
    """Bisected entanglement-breaking gains match the closed forms: both
    modes at each (r, eta), mode a only at r = 0.5 for each eta.  Side
    condition: with mode a only and eta = 0 the r = 0.5 squeezed vacuum
    stays entangled at every gain in ``open_ended_gains``."""
    sym_err = max(abs(gaussian.threshold_bisection(gaussian.SqueezingSpec(r), eta)
                      - gaussian.threshold_symmetric(gaussian.SqueezingSpec(r), eta))
                  for r, eta in symmetric_points)
    spec = gaussian.SqueezingSpec(0.5)
    asym_err = max(abs(gaussian.threshold_bisection(spec, eta, modes=("a",))
                       - gaussian.threshold_asymmetric(eta)) for eta in asymmetric_etas)
    base = gaussian.tmsv_covariance(spec)
    open_ended = min(gaussian.gaussian_log_negativity(
        gaussian.amplify_covariance(base, g2, eta=0.0, modes=("a",)))
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
        ("oracle_symmetric", closed_form_vs_oracle, sym, 2, 1.3, policy),
        ("oracle_asymmetric", closed_form_vs_oracle, asym, 2, 1.3, policy),
        ("method_agreement", method_agreement, ((2, 1.5), (2, 2.0), (4, 1.5)), policy),
        ("scaling_law_symmetric", scaling_law, sym, 2, (1.5,), policy),
        ("scaling_law_asymmetric", scaling_law, asym, 2, (1.5,), policy),
        ("zero_locus", zero_locus, ((2, 1.5),)),
        ("gaussian_thresholds", gaussian_thresholds, ((0.5, 0.0), (0.5, 0.5)), (0.5,),
         np.linspace(1.0, 10.0, 19)),
        ("trace_deficit_budget", trace_deficit_budget, 2, 2.0, policy),
        ("monotone_and_ordering", monotone_and_ordering, 2, (1.0, 1.25, 1.5, 1.75, 2.0),
         policy),
    )
    return {name: _run(check, *args) for name, check, *args in quick}
