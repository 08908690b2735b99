import itertools
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from noonamp import (MODE_ASYMMETRIC_A, MODE_SYMMETRIC, AmplifierParams, CovarianceState,
                     ModeCutoffs, SqueezingSpec,
                     amplify_covariance, amplify_state, checks,
                     gaussian_log_negativity, photon_added_tmsv_negativity_sweep,
                     threshold_asymmetric, threshold_bisection, threshold_symmetric,
                     tmsv_covariance, tmsv_fock)
from noonamp.gaussian import _nu_minus
from noonamp.negativity import log_negativity_dense

# dense eigensolve of adag bdag |tmsv><tmsv| b a at r = 0.5, cutoff 30;
# photon addition strengthens the squeezed vacuum's entanglement
GOLDEN_EN_ADDED_TMSV_R0P5 = 2.2595766197217335


def _covariance(state):
    """The 4x4 V of a standard-form state, rebuilt here so that the
    library's scalar closed forms have an independent reference."""
    a, b, c = state.a, state.b, state.c
    return np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])


_OMEGA = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
_FLIP_PB = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose: p_b -> -p_b


def test_tmsv_covariance_values():
    assert tmsv_covariance(SqueezingSpec(0.0)) == CovarianceState(1.0, 1.0, 0.0, 1.0)
    state = tmsv_covariance(SqueezingSpec(0.5))
    assert abs(state.a - math.cosh(1.0)) <= 1e-12
    assert abs(state.b - math.cosh(1.0)) <= 1e-12
    assert abs(state.c - math.sinh(1.0)) <= 1e-12
    # purity: ab - c^2 = 1 and both symplectic eigenvalues equal 1
    assert abs(state.e * state.a * state.b - 1.0) <= 1e-10
    nus = np.abs(np.linalg.eigvals(1j * _OMEGA @ _covariance(state)))
    assert np.abs(nus - 1.0).max() <= 1e-10


def test_squeezing_spec_validation():
    with pytest.raises(ValueError):
        SqueezingSpec(-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SqueezingSpec(bad)


def test_covariance_state_validation():
    with pytest.raises(ValueError, match="uncertainty"):
        CovarianceState(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="uncertainty"):
        CovarianceState(-1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        CovarianceState(1.0, math.inf, 0.0, 1.0)
    # e must match 1 - c^2/(ab)
    with pytest.raises(ValueError, match="must equal"):
        CovarianceState(2.0, 2.0, 1.0, 1.0)
    # a ratio whose digits are gone, as at r = 200 where 1/cosh^2 2r underflows
    with pytest.raises(ValueError, match="normal float"):
        CovarianceState(1.0, 1.0, 1.0, 5e-324)
    with pytest.raises(ValueError, match="normal float"):
        tmsv_covariance(SqueezingSpec(200.0))


def test_tmsv_negativity_exact_at_any_squeezing():
    """At unit gain E_N = 2r/ln 2 to 1e-13 relative for every r up to 20:
    the excess is carried as 1/cosh^2 2r, not read off the difference of
    products of order e^{4r}."""
    for r in (0.5, 2.0, 4.0, 6.0, 8.0, 20.0):
        en = gaussian_log_negativity(tmsv_covariance(SqueezingSpec(r)))
        assert abs(en - 2.0 * r / math.log(2.0)) <= 1e-13 * (2.0 * r / math.log(2.0))


def test_uncertainty_check_scales_with_the_covariance():
    """The check lets nu_minus sit below 1 by what 64 roundings of e, a and
    b can move it: every physical covariance below passes (measured at most
    1/128 of the way to that bound), and unphysical ones past it are
    refused, also beside a variance as large as 1e15."""
    for r in np.arange(0.5, 20.0 + 1e-9, 0.25):
        tmsv_covariance(SqueezingSpec(float(r)))
    for r, mode, eta in itertools.product((0.1, 0.5, 1.0, 3.0),
                                          (MODE_SYMMETRIC, MODE_ASYMMETRIC_A),
                                          (0.0, 0.25, 1.0)):
        base = tmsv_covariance(SqueezingSpec(r))
        for g2 in np.logspace(0.0, 12.0, 97):
            amplify_covariance(base, AmplifierParams(float(g2), eta=eta, mode_config=mode))
    base = tmsv_covariance(SqueezingSpec(0.5))
    for g2 in np.logspace(5.0, 8.0, 601):
        amplify_covariance(base, AmplifierParams(float(g2), mode_config=MODE_ASYMMETRIC_A))
    # unit scale, where the bound is 1 - 4.3e-14
    with pytest.raises(ValueError, match="uncertainty"):
        CovarianceState(1.0 - 1e-8, 1.0 - 1e-8, 0.0, 1.0)
    # a mode below the vacuum, and nu_minus 0.9, next to a = 1e15
    with pytest.raises(ValueError, match="uncertainty"):
        CovarianceState(1e15, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="uncertainty"):
        CovarianceState(1e15, 1.0, 1e7, 1.0 - (1e7 / 1e15) * 1e7)
    # nu_minus 1 - 1.5e-6 against a bound of 1 - 2.8e-14
    out = amplify_covariance(base, AmplifierParams(1e6, mode_config=MODE_ASYMMETRIC_A))
    shrunk = 0.999999 * out.b
    with pytest.raises(ValueError, match="uncertainty"):
        CovarianceState(out.a, shrunk, out.c, 1.0 - (out.c / out.a) * (out.c / shrunk))


def test_amplify_covariance_vacuum_thermal():
    vac = CovarianceState(1.0, 1.0, 0.0, 1.0)
    out = amplify_covariance(vac, AmplifierParams(2.0, eta=0.0))
    assert max(abs(out.a - 3.0), abs(out.b - 3.0), abs(out.c), abs(out.e - 1.0)) <= 1e-12
    # mean photons (variance - 1)/2 = g2 - 1
    assert abs((out.a - 1.0) / 2.0 - 1.0) <= 1e-12
    # with eta the added noise grows to (g2-1)(2 eta + 1)
    noisy = amplify_covariance(vac, AmplifierParams(2.0, eta=0.5))
    assert max(abs(noisy.a - 4.0), abs(noisy.b - 4.0), abs(noisy.c)) <= 1e-12


def test_amplify_covariance_identity_and_guards():
    state = tmsv_covariance(SqueezingSpec(0.3))
    out = amplify_covariance(state, AmplifierParams(1.0))
    assert max(abs(out.a - state.a), abs(out.b - state.b), abs(out.c - state.c),
               abs(out.e - state.e)) <= 1e-14
    with pytest.raises(ValueError):
        amplify_covariance(state, AmplifierParams(0.8))
    with pytest.raises(ValueError):
        amplify_covariance(state, AmplifierParams(2.0, eta=-0.1))
    with pytest.raises(ValueError):
        amplify_covariance(state, AmplifierParams(2.0, mode_config="q"))


@settings(deadline=None, max_examples=200)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 4.0),
       st.sampled_from([MODE_SYMMETRIC, MODE_ASYMMETRIC_A]))
def test_symplectic_eigenvalue_against_the_matrix(r, eta, log_g2, mode):
    """nu_minus and E_N match the smallest |eigenvalue| of i Omega V^Gamma,
    held to that reference's own rounding, 64 eps max|V|."""
    state = amplify_covariance(tmsv_covariance(SqueezingSpec(r)),
                               AmplifierParams(10.0 ** log_g2, eta=eta, mode_config=mode))
    v = _FLIP_PB @ _covariance(state) @ _FLIP_PB
    bound = 64.0 * np.finfo(float).eps * np.abs(v).max()
    ref = float(np.abs(np.linalg.eigvals(1j * _OMEGA @ v)).min())
    assert abs(_nu_minus(state) - ref) <= bound
    ref_en = max(0.0, -math.log2(ref))
    assert abs(gaussian_log_negativity(state) - ref_en) <= bound / (ref * math.log(2.0))


def test_gaussian_log_negativity_values():
    assert gaussian_log_negativity(CovarianceState(1.0, 1.0, 0.0, 1.0)) == 0.0
    r = 0.5
    en = gaussian_log_negativity(tmsv_covariance(SqueezingSpec(r)))
    assert abs(en - 2.0 * r / math.log(2.0)) <= 1e-12
    # exactly at the closed-form threshold the negativity closes
    spec = SqueezingSpec(0.5)
    g2 = threshold_symmetric(spec, 0.0)
    at = amplify_covariance(tmsv_covariance(spec), AmplifierParams(g2))
    assert gaussian_log_negativity(at) <= 1e-6


def test_threshold_formulas():
    assert abs(threshold_symmetric(SqueezingSpec(20.0), 0.0) - 2.0) <= 1e-12
    assert threshold_symmetric(SqueezingSpec(0.0), 0.0) == 1.0
    assert abs(threshold_symmetric(SqueezingSpec(0.5), 0.0)
               - 2.0 / (1.0 + math.exp(-1.0))) <= 1e-12
    assert threshold_asymmetric(1.0) == 2.0
    assert threshold_asymmetric(0.5) == 3.0
    assert math.isinf(threshold_asymmetric(0.0))
    with pytest.raises(ValueError):
        threshold_asymmetric(-0.2)
    with pytest.raises(ValueError):
        threshold_symmetric(SqueezingSpec(0.5), -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            threshold_asymmetric(bad)
        with pytest.raises(ValueError, match="finite"):
            threshold_symmetric(SqueezingSpec(0.5), bad)
        with pytest.raises(ValueError, match="finite"):
            threshold_bisection(SqueezingSpec(0.5), bad)


def test_bisection_matches_closed_forms():
    assert checks.gaussian_thresholds([(r, eta) for r in (0.25, 0.5) for eta in (0.0, 0.25)],
                                      (0.5,), (1.0, 10.0)).passed
    # r = 0: nothing entangled, crossing sits at unit gain
    assert threshold_bisection(SqueezingSpec(0.0), 0.0) == 1.0


def test_nu_minus_far_past_the_thresholds():
    """nu_minus neither overflows nor cancels at high gain (a numeric
    warning fails the suite).  The references are 60-digit mpmath
    evaluations of the same closed form."""
    base = tmsv_covariance(SqueezingSpec(0.5))
    # both modes, where the 4x4 determinant of V overflows
    for g2 in (1e77, 2e77):
        assert gaussian_log_negativity(amplify_covariance(base, AmplifierParams(g2))) == 0.0
    # mode a only at eta = 1, where the textbook root cancels to 0
    one_sided = amplify_covariance(
        base, AmplifierParams(6e7, eta=1.0, mode_config=MODE_ASYMMETRIC_A))
    assert abs(_nu_minus(one_sided) - 1.2390803367716653) <= 1e-12
    assert gaussian_log_negativity(one_sided) == 0.0
    # mode a only at eta = 0: entangled at every gain, 1 - nu_minus ~ 0.427 / G^2,
    # so the bisection finds no finite breaking gain
    for g2, want in ((1e3, 0.42734928872456660), (1e5, 0.42710698093750044),
                     (1e7, 0.42710455853677097)):
        nu = _nu_minus(amplify_covariance(
            base, AmplifierParams(g2, mode_config=MODE_ASYMMETRIC_A)))
        assert abs((1.0 - nu) * g2 - want) <= 1e-6 * want
    with pytest.raises(ValueError, match="no entanglement-breaking gain below 1e9"):
        threshold_bisection(SqueezingSpec(0.5), 0.0, MODE_ASYMMETRIC_A)


def test_gaussian_negativity_monotone_then_zero():
    spec = SqueezingSpec(0.5)
    thr = threshold_symmetric(spec, 0.0)
    grid = np.linspace(1.0, thr + 0.4, 25)
    values = [gaussian_log_negativity(amplify_covariance(tmsv_covariance(spec),
                                                         AmplifierParams(g2)))
              for g2 in grid]
    crossed = False
    for g2, prev, cur in zip(grid[1:], values, values[1:]):
        if values[0] > 0 and cur == 0.0:
            crossed = True
        if not crossed:
            assert cur < prev
        if g2 > thr + 1e-9:
            assert cur == 0.0
    assert crossed


def test_tmsv_fock_truncation():
    spec = SqueezingSpec(0.5)
    state = tmsv_fock(spec, ModeCutoffs(30, 30))
    assert state.trace_deficit <= 1e-12
    en = log_negativity_dense(state).log_negativity
    assert abs(en - 2.0 * 0.5 / math.log(2.0)) <= 1e-7


def test_photon_added_enhancement():
    spec = SqueezingSpec(0.5)
    from noonamp import photon_add_both
    added = photon_add_both(tmsv_fock(spec, ModeCutoffs(30, 30)))
    en = log_negativity_dense(added).log_negativity
    assert abs(en - GOLDEN_EN_ADDED_TMSV_R0P5) <= 1e-6
    assert en > 2.0 * 0.5 / math.log(2.0)


def test_photon_added_vacuum_stays_separable():
    # r = 0: photon-added vacuum is |1,1>, a product state
    rows = photon_added_tmsv_negativity_sweep(SqueezingSpec(0.0), [1.0, 1.3])
    for _, en, _ in rows:
        assert en <= 1e-12


def test_pipeline_guards():
    with pytest.raises(ValueError, match="0.8"):
        photon_added_tmsv_negativity_sweep(SqueezingSpec(0.9), [1.0])
    with pytest.raises(ValueError):
        photon_added_tmsv_negativity_sweep(SqueezingSpec(0.5), [0.9])


def test_noon_outlives_matched_squeezed_vacuum():
    """Headline robustness comparison: pick r so the squeezed vacuum starts
    with E_N = 1 (matching the NOON state), amplify both to the gain that
    kills the Gaussian entanglement, and the NOON state is still entangled."""
    r = math.log(2.0) / 2.0
    spec = SqueezingSpec(r)
    assert abs(gaussian_log_negativity(tmsv_covariance(spec)) - 1.0) <= 1e-12
    g_kill = threshold_symmetric(spec, 0.0)
    at_kill = amplify_covariance(tmsv_covariance(spec), AmplifierParams(g_kill))
    assert gaussian_log_negativity(at_kill) <= 1e-9

    from noonamp import CutoffPolicy, NoonSpec, amplify_noon_symmetric, select_cutoffs
    params = AmplifierParams(g_kill)
    cut = select_cutoffs(NoonSpec(2), params, CutoffPolicy())
    noon_en = log_negativity_dense(
        amplify_noon_symmetric(NoonSpec(2), params, cut)).log_negativity
    assert noon_en > 0.0
    assert noon_en > 0.5  # comfortably entangled, not a numerical sliver


def test_cross_formalism_agreement():
    """Fock-side negativity of the squeezed vacuum under the exact channel
    against the covariance side, gain by gain, at three bath parameters.
    The gap is the input's truncation at 32x32 (7.1e-11 at unit gain)."""
    spec = SqueezingSpec(0.5)
    squeezed = tmsv_fock(spec, ModeCutoffs(32, 32))
    for eta, g2 in itertools.product((0.0, 0.25, 1.0), (1.0, 1.2, 1.4)):
        state = amplify_state(squeezed, AmplifierParams(g2, eta=eta))
        fock_en = log_negativity_dense(state).log_negativity
        cov_en = gaussian_log_negativity(
            amplify_covariance(tmsv_covariance(spec), AmplifierParams(g2, eta=eta)))
        assert abs(fock_en - cov_en) <= 1e-10


def test_photon_added_sweep_eta():
    """The pipeline runs at eta > 0; bath noise only lowers E_N, and at
    unit gain eta changes nothing but the cutoff."""
    spec = SqueezingSpec(0.3)
    grid = [1.0, 1.05, 1.1]
    quiet = photon_added_tmsv_negativity_sweep(spec, grid)
    noisy = photon_added_tmsv_negativity_sweep(spec, grid, eta=0.5)
    assert noisy[0][2].cutoffs.cutoff_a > quiet[0][2].cutoffs.cutoff_a
    assert abs(noisy[0][1] - quiet[0][1]) <= 1e-6
    for (_, en_quiet, _), (_, en_noisy, st) in zip(quiet[1:], noisy[1:]):
        assert en_noisy < en_quiet
        assert st.trace_deficit <= 1e-9
