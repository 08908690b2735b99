"""Exact integration of the amplifier master equation on the truncated space.

Per amplified mode the density matrix evolves under

    d rho/dt = kappa N1 (2 adag rho a - a adag rho - rho a adag)
             + kappa N2 (2 a rho adag - adag a rho - rho adag a)

with field gain G(t) = exp((N1 - N2) kappa t).  The generator only moves
weight from rho[n, m, p, q] to (n +- 1, p +- 1) and (m +- 1, q +- 1), so
the phase offsets (k_a, k_b) = (n - p, m - q) are conserved exactly: each
sector of fixed (k_a, k_b) evolves independently of the others, a sector
empty at t = 0 stays zero for all time, and a sector's mirror evolves as
its conjugate.  The integrator therefore evolves the state's own sector
stack, sector (0, 0) and the populated sectors above it.

Within a sector the two modes' generators act on different axes of
x[s, j_a, j_b] and commute, and each depends on the sector only through
|k|.  So the sector evolves exactly as x_s -> E_a x_s F_b, where
E_a = exp(t L_a) acts on the mode-a positions and F_b = exp(t L_b^T) on
the mode-b positions, one matrix per amplified mode and distinct |k|.
``_kernels`` defines the generator once: each L is read off one kernel
call on a stack of basis vectors, so the truncated generator is the same
one the kernels apply.  The exponentials come from scaling and squaring a
Taylor sum (Moler & Van Loan, SIAM Rev. 45, 3 (2003); Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 31, 970 (2009)); there is no time-step error.

Amplification pushes weight toward the cutoff, so the state is advanced in
ceil(t / ``CHECK_INTERVAL``) equal spans, all by one propagator per
amplified mode, and after each span the populations of the top two Fock
levels of each amplified mode are checked; the run aborts if they grow
past the leak budget.

This module is the independent oracle for the physical model: the
package's states come from the closed forms and from the exact Kraus map
(``channel.amplify_state``), and ``evolve`` checks both by integrating the
equation they solve.  It takes the same ``channel.AmplifierParams`` as
they do and reads the rates from ``eta`` alone, kappa N1 = 1 + eta and
kappa N2 = eta (so eta = N2/(N1-N2)), never from their ``stage_gain``.
No package pipeline integrates; ``evolve`` serves the ``noonamp.checks``
oracle checks and ``sweep --oracle-check``.
"""

import math

import numpy as np

from . import _kernels
from .channel import AmplifierParams
from .fock import TwoModeState

# longest time between leak checks, in units of 1/kappa; the state is
# advanced exactly over each span, so it sets only where the monitor looks
CHECK_INTERVAL = 5e-3

_LEAK_TOL = 1e-8

# the Taylor remainder ||A||^15 / 15! is below 2^-53 once ||A||_1 <= 1/2
_TAYLOR_DEGREE = 14
_TAYLOR_NORM = 0.5


def _check_leak(pops, modes, t: float, rate: float):
    """Abort if an amplified mode's top two Fock levels hold more than _LEAK_TOL;
    ``pops`` is the (da, db) population array, or None if it is all zero."""
    if pops is None:
        return
    msgs = []
    for axis, mode in enumerate("ab"):
        if mode in modes and pops.shape[axis] >= 2:
            # pops[-2:] for mode a, pops[:, -2:] for mode b
            leak = float(pops[(slice(None),) * axis + (slice(-2, None),)].sum())
            if leak > _LEAK_TOL:
                msgs.append(f"mode {mode} top-two population {leak:.3e}")
    if msgs:
        raise RuntimeError(
            f"cutoff leakage at t={t:.6g} (G^2={math.exp(2.0 * rate * t):.6g}): "
            + "; ".join(msgs) + f" exceeds {_LEAK_TOL:g}; raise the cutoffs"
        )


def _generators(mode: str, k_abs, dim: int, kn1: float, kn2: float) -> np.ndarray:
    """One generator matrix per offset in ``k_abs``, read off the kernel
    applied to identity sectors: L_a for mode a (x_s -> L_a x_s) and L_b^T
    for mode b (x_s -> x_s L_b^T)."""
    basis = np.repeat(np.eye(dim)[None], len(k_abs), axis=0)
    out = np.zeros_like(basis)
    gen = _kernels.gen_mode_a if mode == "a" else _kernels.gen_mode_b
    gen(basis, out, _kernels.ladder(mode, k_abs, dim, kn1, kn2))
    return out


def _expm(gens: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) for each matrix of the stack: a degree-_TAYLOR_DEGREE Taylor
    sum (Horner form) of t L / 2^s, squared s times."""
    a = t * gens
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))   # largest 1-norm
    squarings = math.ceil(math.log2(norm / _TAYLOR_NORM)) if norm > _TAYLOR_NORM else 0
    a /= 2.0**squarings
    eye = np.eye(gens.shape[-1])
    e = eye + a / _TAYLOR_DEGREE
    for m in range(_TAYLOR_DEGREE - 1, 0, -1):
        e = eye + (a @ e) / m
    for _ in range(squarings):
        e = e @ e
    return e


def evolve(state: TwoModeState, params: AmplifierParams) -> TwoModeState:
    """Integrate the master equation on ``params.amplified_modes`` with
    kappa N1 = 1 + eta and kappa N2 = eta until the intensity gain
    exp(2 (kappa N1 - kappa N2) t) reaches params.g_squared, checking the
    leak after each of ceil(t / CHECK_INTERVAL) equal spans, the last at t."""
    kappa_n1, kappa_n2 = 1.0 + params.eta, params.eta
    rate = kappa_n1 - kappa_n2
    t_final = math.log(params.g_squared) / (2.0 * rate)
    if t_final == 0.0:
        return state
    n_spans = math.ceil(t_final / CHECK_INTERVAL)

    modes = params.amplified_modes
    c = state.cutoffs
    k_a, k_b, x = state.k_a, state.k_b, state.x
    # per amplified mode, each sector's propagator over one span
    props = {}
    for mode, k, dim in (("a", k_a, c.cutoff_a), ("b", k_b, c.cutoff_b)):
        if mode in modes:
            k_abs, index = np.unique(np.abs(k), return_inverse=True)
            gens = _generators(mode, k_abs, dim, kappa_n1, kappa_n2)
            props[mode] = _expm(gens, t_final / n_spans)[index].astype(x.dtype)
    # the (0, 0) sector holds the populations, rho[n, m, n, m] = x[s, n, m]
    middle = np.flatnonzero((k_a == 0) & (k_b == 0))

    # linspace ends exactly at t_final
    for t in np.linspace(0.0, t_final, n_spans + 1)[1:].tolist():
        if "a" in props:
            x = props["a"] @ x
        if "b" in props:
            x = x @ props["b"]
        _check_leak(x[middle[0]].real if middle.size else None, modes, t, rate)

    return TwoModeState(c, k_a, k_b, x)
