import cmath
import math

import numpy as np
import pytest

from noonamp import (AmplifierParams, MODE_ASYMMETRIC_A, ModeCutoffs, NoonSpec, SqueezingSpec,
                     TwoModeState, build_noon, evolve, photon_add_both, tmsv_fock)
from noonamp import _kernels

from helpers import dense_tensor, from_matrix


def random_hermitian_tensor(da, db, rng):
    d = da * db
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    return np.ascontiguousarray(h.reshape(da, db, da, db))


def creation(dim):
    op = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        op[n, n - 1] = math.sqrt(n)
    return op


def dense_generator(rho_mat, adag, kn1, kn2):
    a = adag.conj().T
    gain = 2 * adag @ rho_mat @ a - a @ adag @ rho_mat - rho_mat @ a @ adag
    loss = 2 * a @ rho_mat @ adag - adag @ a @ rho_mat - rho_mat @ adag @ a
    return kn1 * gain + kn2 * loss


def sector_generator(rho, mode, kn1, kn2):
    """Apply one sector kernel to a full (da, db, da, db) tensor and scatter
    the result back to the full tensor."""
    da, db = rho.shape[:2]
    cutoffs = ModeCutoffs(da, db)
    state = from_matrix(cutoffs, rho.reshape(da * db, da * db), validate=False)
    k_a, k_b, x = state.k_a, state.k_b, state.x
    out = np.zeros_like(x)
    if mode == "a":
        _kernels.gen_mode_a(x, out, _kernels.ladder("a", k_a, da, kn1, kn2))
    else:
        _kernels.gen_mode_b(x, out, _kernels.ladder("b", k_b, db, kn1, kn2))
    return dense_tensor(TwoModeState(cutoffs, k_a, k_b, out, validate=False))


@pytest.mark.parametrize("mode", ["a", "b"])
def test_kernel_matches_dense_operator_algebra(mode):
    """The kernel acts as: exact generator on the zero-padded state, then
    cropped back to the box.  Build that reference with explicit ladder
    matrices in an enlarged space.  The random tensor fills every sector."""
    rng = np.random.default_rng(23)
    da, db = 7, 5
    rho = random_hermitian_tensor(da, db, rng)
    kn1, kn2 = 1.3, 0.4

    ea, eb = da + 1, db + 1
    big = np.zeros((ea, eb, ea, eb), dtype=complex)
    big[:da, :db, :da, :db] = rho
    if mode == "a":
        adag = np.kron(creation(ea), np.eye(eb))
    else:
        adag = np.kron(np.eye(ea), creation(eb))

    ref = dense_generator(big.reshape(ea * eb, ea * eb), adag, kn1, kn2)
    cropped = ref.reshape(ea, eb, ea, eb)[:da, :db, :da, :db]
    assert np.count_nonzero(rho) == rho.size
    out = sector_generator(rho, mode, kn1, kn2)
    assert np.abs(out - cropped).max() <= 1e-12


def test_kernels_accumulate():
    rng = np.random.default_rng(31)
    state = from_matrix(ModeCutoffs(4, 4),
                        random_hermitian_tensor(4, 4, rng).reshape(16, 16), validate=False)
    k_a, k_b, x = state.k_a, state.k_b, state.x
    lad_a = _kernels.ladder("a", k_a, 4, 1.0, 0.0)
    lad_b = _kernels.ladder("b", k_b, 4, 1.0, 0.0)
    out = np.zeros_like(x)
    _kernels.gen_mode_a(x, out, lad_a)
    first = out.copy()
    _kernels.gen_mode_b(x, out, lad_b)
    second = np.zeros_like(x)
    _kernels.gen_mode_b(x, second, lad_b)
    assert np.abs(out - (first + second)).max() <= 1e-14


# --- full-tensor reference integrator ---------------------------------------
# The generator applied to the whole (da, db, da, db) tensor, both modes
# summed, and propagated by its own Taylor series.  ``evolve`` instead
# exponentiates each mode's sector generator separately; the two agree to
# rounding.

# substep and Taylor order of the reference: the generators of the cases
# below have 1-norms up to about 200, so h ||L|| <= 0.4 and the remainder
# 0.4^17 / 17! is below 1e-21
REF_SUBSTEP = 2e-3
REF_ORDER = 16

def full_gen_mode_a(rho, out, kn1, kn2, sq):
    da = rho.shape[0]
    n = np.arange(da, dtype=np.float64)
    up = sq[1:, None, None, None] * sq[None, None, 1:, None]
    out[1:, :, 1:, :] += (2.0 * kn1) * up * rho[:-1, :, :-1, :]
    out -= kn1 * ((n + 1.0)[:, None, None, None] + (n + 1.0)[None, None, :, None]) * rho
    if kn2 != 0.0:
        out[:-1, :, :-1, :] += (2.0 * kn2) * up * rho[1:, :, 1:, :]
        out -= kn2 * (n[:, None, None, None] + n[None, None, :, None]) * rho
    return out


def full_gen_mode_b(rho, out, kn1, kn2, sq):
    db = rho.shape[1]
    m = np.arange(db, dtype=np.float64)
    up = sq[None, 1:, None, None] * sq[None, None, None, 1:]
    out[:, 1:, :, 1:] += (2.0 * kn1) * up * rho[:, :-1, :, :-1]
    out -= kn1 * ((m + 1.0)[None, :, None, None] + (m + 1.0)[None, None, None, :]) * rho
    if kn2 != 0.0:
        out[:, :-1, :, :-1] += (2.0 * kn2) * up * rho[:, 1:, :, 1:]
        out -= kn2 * (m[None, :, None, None] + m[None, None, None, :]) * rho
    return out


def full_tensor_evolve(state, params):
    """The master equation on the whole (da, db, da, db) tensor: a Taylor
    series of the full-tensor generator, summed to REF_ORDER in equal
    substeps of at most REF_SUBSTEP.  It shares no code with ``evolve``."""
    kn1, kn2 = 1.0 + params.eta, params.eta
    t_final = math.log(params.g_squared) / (2.0 * (kn1 - kn2))
    n_sub = math.ceil(t_final / REF_SUBSTEP)
    h = t_final / n_sub
    c = state.cutoffs
    rho = dense_tensor(state).copy()
    sq_a = np.sqrt(np.arange(c.cutoff_a, dtype=np.float64))
    sq_b = np.sqrt(np.arange(c.cutoff_b, dtype=np.float64))

    def generator(x):
        out = np.zeros_like(x)
        if "a" in params.amplified_modes:
            full_gen_mode_a(x, out, kn1, kn2, sq_a)
        if "b" in params.amplified_modes:
            full_gen_mode_b(x, out, kn1, kn2, sq_b)
        return out

    for _ in range(n_sub):
        term, total = rho, rho.copy()
        for m in range(1, REF_ORDER + 1):
            term = generator(term) * (h / m)
            total += term
        rho = total
    d = c.dimension
    return from_matrix(c, rho.reshape(d, d))


def phased_noon(n, phase, cutoffs):
    i, j = cutoffs.flat_index(n, 0), cutoffs.flat_index(0, n)
    coh = 0.5 * cmath.exp(-1j * phase)
    return TwoModeState.from_entries(cutoffs, [i, i, j, j], [i, j, i, j],
                                     [0.5, coh, coh.conjugate(), 0.5])


EVOLVE_CASES = {
    "noon2_symmetric": (lambda: build_noon(NoonSpec(2), ModeCutoffs(10, 10)),
                        AmplifierParams(1.03)),
    "noon4_asymmetric": (lambda: build_noon(NoonSpec(4), ModeCutoffs(22, 6)),
                         AmplifierParams(1.15, mode_config=MODE_ASYMMETRIC_A)),
    "photon_added_tmsv": (lambda: photon_add_both(tmsv_fock(SqueezingSpec(0.3),
                                                            ModeCutoffs(16, 16))),
                          AmplifierParams(1.1)),
    "noon1_eta": (lambda: build_noon(NoonSpec(1), ModeCutoffs(12, 12)),
                  AmplifierParams(1.05, eta=0.5)),
    "noon2_complex_phase": (lambda: phased_noon(2, 0.7, ModeCutoffs(10, 10)),
                            AmplifierParams(1.03)),
    "no_entries": (lambda: from_matrix(ModeCutoffs(5, 4), np.zeros((20, 20))),
                   AmplifierParams(1.2)),
}


@pytest.mark.parametrize("case", list(EVOLVE_CASES))
def test_sector_evolution_matches_full_tensor(case):
    """The sector propagators reproduce full-tensor propagation: the same
    sectors, and every entry within 1e-14 (measured at most 6.7e-16)."""
    make, params = EVOLVE_CASES[case]
    state = make()
    got, want = evolve(state, params), full_tensor_evolve(state, params)
    assert got.x.dtype == want.x.dtype == state.x.dtype
    assert got.cutoffs == want.cutoffs
    assert np.array_equal(got.k_a, want.k_a) and np.array_equal(got.k_b, want.k_b)
    assert np.abs(got.x - want.x).max(initial=0.0) <= 1e-14
    assert (got.x.size > 0) == (state.x.size > 0)
