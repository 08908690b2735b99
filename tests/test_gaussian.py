import math

import numpy as np
import pytest

from noonamp import (CovarianceState, IntegratorConfig, LindbladParams, ModeCutoffs,
                     SqueezingSpec, amplify_covariance, checks, evolve,
                     gaussian_log_negativity, photon_added_tmsv_negativity_sweep,
                     threshold_asymmetric, threshold_bisection, threshold_symmetric,
                     tmsv_covariance, tmsv_fock)
from noonamp.gaussian import _nu_minus
from noonamp.negativity import log_negativity_dense

# dense eigensolve of adag bdag |tmsv><tmsv| b a at r = 0.5, cutoff 30;
# photon addition strengthens the squeezed vacuum's entanglement
GOLDEN_EN_ADDED_TMSV_R0P5 = 2.2595766197217335


def test_tmsv_covariance_values():
    assert np.array_equal(tmsv_covariance(SqueezingSpec(0.0)).cov, np.eye(4))
    cov = tmsv_covariance(SqueezingSpec(0.5)).cov
    assert abs(cov[0, 0] - math.cosh(1.0)) <= 1e-12
    assert abs(cov[0, 2] - math.sinh(1.0)) <= 1e-12
    assert abs(cov[1, 3] + math.sinh(1.0)) <= 1e-12
    # purity: det = 1 and both symplectic eigenvalues equal 1
    assert abs(np.linalg.det(cov) - 1.0) <= 1e-10
    omega = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    nus = np.abs(np.linalg.eigvals(1j * omega @ cov))
    assert np.abs(nus - 1.0).max() <= 1e-10


def test_squeezing_spec_validation():
    with pytest.raises(ValueError):
        SqueezingSpec(-0.1)


def test_covariance_state_validation():
    with pytest.raises(ValueError, match="uncertainty"):
        CovarianceState(0.5 * np.eye(4))
    lopsided = np.eye(4)
    lopsided[0, 1] += 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceState(lopsided)
    with pytest.raises(ValueError):
        CovarianceState(np.eye(2))


def test_amplify_covariance_vacuum_thermal():
    vac = CovarianceState(np.eye(4))
    out = amplify_covariance(vac, 2.0, eta=0.0)
    assert np.abs(out.cov - 3.0 * np.eye(4)).max() <= 1e-12
    # mean photons (diag - 1)/2 = g2 - 1
    assert abs((out.cov[0, 0] - 1.0) / 2.0 - 1.0) <= 1e-12
    # with eta the added noise grows to (g2-1)(2 eta + 1)
    noisy = amplify_covariance(vac, 2.0, eta=0.5)
    assert np.abs(noisy.cov - 4.0 * np.eye(4)).max() <= 1e-12


def test_amplify_covariance_identity_and_guards():
    state = tmsv_covariance(SqueezingSpec(0.3))
    out = amplify_covariance(state, 1.0)
    assert np.abs(out.cov - state.cov).max() <= 1e-14
    with pytest.raises(ValueError):
        amplify_covariance(state, 0.8)
    with pytest.raises(ValueError):
        amplify_covariance(state, 2.0, eta=-0.1)
    with pytest.raises(ValueError):
        amplify_covariance(state, 2.0, modes=("q",))


def test_gaussian_log_negativity_values():
    assert gaussian_log_negativity(CovarianceState(np.eye(4))) == 0.0
    r = 0.5
    en = gaussian_log_negativity(tmsv_covariance(SqueezingSpec(r)))
    assert abs(en - 2.0 * r / math.log(2.0)) <= 1e-12
    # exactly at the closed-form threshold the negativity closes
    spec = SqueezingSpec(0.5)
    g2 = threshold_symmetric(spec, 0.0)
    at = amplify_covariance(tmsv_covariance(spec), g2)
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


def test_bisection_matches_closed_forms():
    assert checks.gaussian_thresholds([(r, eta) for r in (0.25, 0.5) for eta in (0.0, 0.25)],
                                      (0.5,), (1.0, 10.0)).passed
    # r = 0: nothing entangled, crossing sits at unit gain
    assert threshold_bisection(SqueezingSpec(0.0), 0.0) == 1.0


def test_gaussian_negativity_monotone_then_zero():
    spec = SqueezingSpec(0.5)
    thr = threshold_symmetric(spec, 0.0)
    grid = np.linspace(1.0, thr + 0.4, 25)
    values = [gaussian_log_negativity(amplify_covariance(tmsv_covariance(spec), g2))
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
    at_kill = amplify_covariance(tmsv_covariance(spec), g_kill)
    assert gaussian_log_negativity(at_kill) <= 1e-9

    from noonamp import (AmplifierParams, CutoffPolicy, NoonSpec,
                         amplify_noon_symmetric, select_cutoffs)
    params = AmplifierParams(g_kill)
    cut = select_cutoffs(NoonSpec(2), params, CutoffPolicy())
    noon_en = log_negativity_dense(
        amplify_noon_symmetric(NoonSpec(2), params, cut)).log_negativity
    assert noon_en > 0.0
    assert noon_en > 0.5  # comfortably entangled, not a numerical sliver


def test_cross_formalism_agreement():
    """Fock-side negativity of the evolved squeezed vacuum against the
    covariance side, gain by gain."""
    spec = SqueezingSpec(0.5)
    cut = ModeCutoffs(32, 32)
    state = tmsv_fock(spec, cut)
    params = LindbladParams(1.0, 0.0, ("a", "b"))
    g_prev = 1.0
    for g2 in (1.0, 1.2, 1.4):
        if g2 > g_prev:
            state = evolve(state, params,
                           IntegratorConfig(target_g_squared=g2 / g_prev, step_size=1e-3))
            g_prev = g2
        fock_en = log_negativity_dense(state).log_negativity
        cov_en = gaussian_log_negativity(
            amplify_covariance(tmsv_covariance(spec), g2))
        assert abs(fock_en - cov_en) <= 1e-4
