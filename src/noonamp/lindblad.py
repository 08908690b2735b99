"""Fixed-step integration of the amplifier master equation.

Per amplified mode the density matrix evolves under

    d rho/dt = kappa N1 (2 adag rho a - a adag rho - rho a adag)
             + kappa N2 (2 a rho adag - adag a rho - rho adag a)

with field gain G(t) = exp((N1 - N2) kappa t).  The generator only moves
weight from rho[n, m, p, q] to (n +- 1, p +- 1) and (m +- 1, q +- 1), so
the phase offsets (k_a, k_b) = (n - p, m - q) are conserved exactly: each
sector of fixed (k_a, k_b) evolves independently of the others, and a
sector empty at t = 0 stays zero for all time, and a sector's mirror
evolves as its conjugate.  The integrator therefore evolves the state's
own sector stack, sector (0, 0) and the populated sectors above it, acted
on matrix-free by ``_kernels``; the generator is never materialized as a
superoperator.  This is a symmetry of the equation, not an approximation:
every stored entry comes out bit-for-bit as a full-tensor integration
would give it.  A NOON input stores 2 of the (2 cutoff_a - 1)
(2 cutoff_b - 1) sectors.

A classical fourth-order Runge-Kutta scheme with a fixed step
(``STEP_SIZE``) keeps runs bit-for-bit reproducible; amplification pushes
weight toward the cutoff, so the populations of the top two Fock levels of
each amplified mode are checked every ten steps and the run aborts if they
grow past the leak budget.

This module is the independent oracle for the physical model: the
package's states come from the closed forms and from the exact Kraus map
(``channel.amplify_state``), and ``evolve`` checks both by integrating the
equation they solve.  It takes the same ``channel.AmplifierParams`` as the
map and reads the rates from ``eta`` alone, kappa N1 = 1 + eta and
kappa N2 = eta (so eta = N2/(N1-N2)), never from the map's
``stage_gain``.  No package pipeline integrates; ``evolve`` serves the
``noonamp.checks`` oracle checks and ``sweep --oracle-check``.
"""

import math

import numpy as np

from . import _kernels
from .channel import AmplifierParams
from .fock import TwoModeState

# fixed RK4 time step, in units of 1/kappa
STEP_SIZE = 5e-4

_LEAK_TOL = 1e-8
_LEAK_CHECK_EVERY = 10


def _liouvillian(x, out, modes, ladder_a, ladder_b):
    out[:] = 0.0
    if "a" in modes:
        _kernels.gen_mode_a(x, out, ladder_a)
    if "b" in modes:
        _kernels.gen_mode_b(x, out, ladder_b)
    return out


def _check_leak(pops, modes, t: float, rate: float):
    """Abort if an amplified mode's top two Fock levels hold more than _LEAK_TOL;
    ``pops`` is the (da, db) population array, or None if it is all zero."""
    if pops is None:
        return
    msgs = []
    if "a" in modes and pops.shape[0] >= 2:
        leak = float(pops[-2:, :].sum())
        if leak > _LEAK_TOL:
            msgs.append(f"mode a top-two population {leak:.3e}")
    if "b" in modes and pops.shape[1] >= 2:
        leak = float(pops[:, -2:].sum())
        if leak > _LEAK_TOL:
            msgs.append(f"mode b top-two population {leak:.3e}")
    if msgs:
        raise RuntimeError(
            f"cutoff leakage at t={t:.6g} (G^2={math.exp(2.0 * rate * t):.6g}): "
            + "; ".join(msgs) + f" exceeds {_LEAK_TOL:g}; raise the cutoffs"
        )


def evolve(state: TwoModeState, params: AmplifierParams) -> TwoModeState:
    """Integrate the master equation on ``params.amplified_modes`` with
    kappa N1 = 1 + eta and kappa N2 = eta, in steps of STEP_SIZE, until the
    intensity gain exp(2 (kappa N1 - kappa N2) t) reaches params.g_squared."""
    kappa_n1, kappa_n2 = 1.0 + params.eta, params.eta
    rate = kappa_n1 - kappa_n2
    t_final = math.log(params.g_squared) / (2.0 * rate)
    if t_final == 0.0:
        return state

    h = STEP_SIZE
    n_full = int(t_final / h)
    rem = t_final - n_full * h
    total_steps = n_full + (1 if rem > 1e-15 * max(t_final, 1.0) else 0)

    modes = params.amplified_modes
    c = state.cutoffs
    k_a, k_b, rho = state.k_a, state.k_b, state.x.copy()
    k1, k2, k3, k4, tmp = (np.empty_like(rho) for _ in range(5))
    ladder_a = _kernels.ladder("a", k_a, c.cutoff_a, kappa_n1, kappa_n2)
    ladder_b = _kernels.ladder("b", k_b, c.cutoff_b, kappa_n1, kappa_n2)
    # the (0, 0) sector holds the populations, rho[n, m, n, m] = x[s, n, m];
    # pops is a view, so it follows the in-place updates of rho
    middle = np.flatnonzero((k_a == 0) & (k_b == 0))
    pops = rho[middle[0]].real if middle.size else None

    t = 0.0
    for step in range(total_steps):
        dt = h if step < n_full else rem
        _liouvillian(rho, k1, modes, ladder_a, ladder_b)
        np.multiply(k1, 0.5 * dt, out=tmp)
        tmp += rho
        _liouvillian(tmp, k2, modes, ladder_a, ladder_b)
        np.multiply(k2, 0.5 * dt, out=tmp)
        tmp += rho
        _liouvillian(tmp, k3, modes, ladder_a, ladder_b)
        np.multiply(k3, dt, out=tmp)
        tmp += rho
        _liouvillian(tmp, k4, modes, ladder_a, ladder_b)
        k1 += k4
        k2 += k3
        k1 += 2.0 * k2
        k1 *= dt / 6.0
        rho += k1
        t += dt
        if (step + 1) % _LEAK_CHECK_EVERY == 0 or step == total_steps - 1:
            _check_leak(pops, modes, t, rate)

    return TwoModeState(c, k_a, k_b, rho)

