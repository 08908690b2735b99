"""Fixed-step integration of the amplifier master equation.

Per amplified mode the density matrix evolves under

    d rho/dt = kappa N1 (2 adag rho a - a adag rho - rho a adag)
             + kappa N2 (2 a rho adag - adag a rho - rho adag a)

with field gain G(t) = exp((N1 - N2) kappa t).  The generator only moves
weight from rho[n, m, p, q] to (n +- 1, p +- 1) and (m +- 1, q +- 1), so
the phase offsets (k_a, k_b) = (n - p, m - q) are conserved exactly: each
sector of fixed (k_a, k_b) evolves independently of the others, and a
sector empty at t = 0 stays zero for all time.  The integrator therefore
evolves only the sectors populated at t = 0 (and their Hermitian mirrors),
stacked as one array and acted on matrix-free by ``_kernels``; the
generator is never materialized as a superoperator.  This is a symmetry
of the equation, not an approximation: every stored entry comes out
bit-for-bit as a full-tensor integration would give it.  A NOON input
fills only 3 of the (2 cutoff_a - 1)(2 cutoff_b - 1) sectors.

A classical fourth-order Runge-Kutta scheme with a fixed step keeps runs
bit-for-bit reproducible; amplification pushes weight toward the cutoff,
so the populations of the top two Fock levels of each amplified mode are
checked every ten steps and the run aborts if they grow past the leak
budget.

This module is the independent oracle for the physical model: the
package's states come from the closed forms and from the exact Kraus map
(``channel.amplify_state``), and ``evolve`` checks both by integrating the
equation they solve, for any eta = N2/(N1-N2) >= 0 (kappa N1 = 1 + eta,
kappa N2 = eta gives the channel of ``channel.AmplifierParams``).  No
package pipeline integrates; ``evolve`` serves the ``noonamp.checks``
oracle checks and ``sweep --oracle-check``.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import _kernels
from .fock import ModeCutoffs, TwoModeState, from_sectors, to_sectors

_LEAK_TOL = 1e-8
_LEAK_CHECK_EVERY = 10


@dataclass(frozen=True)
class LindbladParams:
    """Rates kappa_n1 = kappa*N1 (gain side) and kappa_n2 = kappa*N2 (loss side)."""

    kappa_n1: float
    kappa_n2: float = 0.0
    amplified_modes: tuple[str, ...] = ("a", "b")

    def __post_init__(self):
        if self.kappa_n1 < 0 or self.kappa_n2 < 0:
            raise ValueError("rates must be >= 0")
        if not self.kappa_n1 > self.kappa_n2:
            raise ValueError("amplification needs kappa_n1 > kappa_n2")
        if not set(self.amplified_modes) <= {"a", "b"}:
            raise ValueError("amplified_modes must be a subset of {'a', 'b'}")

    @property
    def rate(self) -> float:
        return self.kappa_n1 - self.kappa_n2

    @property
    def eta(self) -> float:
        return self.kappa_n2 / (self.kappa_n1 - self.kappa_n2)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 up to the time implied by target_g_squared."""

    target_g_squared: float
    step_size: float = 5e-4
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def gain_from_time(params: LindbladParams, t: float) -> float:
    """Intensity gain G^2 = exp(2 (kappa_n1 - kappa_n2) t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(2.0 * params.rate * t)


def _time_for_gain(params: LindbladParams, g_squared: float) -> float:
    return math.log(g_squared) / (2.0 * params.rate)


def _liouvillian(x, out, params: LindbladParams, ladder_a, ladder_b):
    out[:] = 0.0
    if "a" in params.amplified_modes:
        _kernels.gen_mode_a(x, out, ladder_a)
    if "b" in params.amplified_modes:
        _kernels.gen_mode_b(x, out, ladder_b)
    return out


def _check_leak(pops, params: LindbladParams, t: float):
    """Abort if an amplified mode's top two Fock levels hold more than _LEAK_TOL;
    ``pops`` is the (da, db) population array, or None if it is all zero."""
    if pops is None:
        return
    msgs = []
    if "a" in params.amplified_modes and pops.shape[0] >= 2:
        leak = float(pops[-2:, :].sum())
        if leak > _LEAK_TOL:
            msgs.append(f"mode a top-two population {leak:.3e}")
    if "b" in params.amplified_modes and pops.shape[1] >= 2:
        leak = float(pops[:, -2:].sum())
        if leak > _LEAK_TOL:
            msgs.append(f"mode b top-two population {leak:.3e}")
    if msgs:
        raise RuntimeError(
            f"cutoff leakage at t={t:.6g} (G^2={gain_from_time(params, t):.6g}): "
            + "; ".join(msgs) + f" exceeds {_LEAK_TOL:g}; raise the cutoffs"
        )


def evolve(state: TwoModeState, params: LindbladParams,
           config_: IntegratorConfig) -> TwoModeState:
    """Integrate the master equation until the gain reaches target_g_squared."""
    if config_.target_g_squared < 1.0:
        raise ValueError("target_g_squared must be >= 1")
    t_final = _time_for_gain(params, config_.target_g_squared)
    if t_final == 0.0:
        return state

    h = config_.step_size
    n_full = int(t_final / h)
    rem = t_final - n_full * h
    total_steps = n_full + (1 if rem > 1e-15 * max(t_final, 1.0) else 0)
    if total_steps > config_.max_steps:
        raise ValueError(f"{total_steps} steps exceed max_steps={config_.max_steps}")

    c = state.cutoffs
    k_a, k_b, rho = to_sectors(state)
    k1, k2, k3, k4, tmp = (np.empty_like(rho) for _ in range(5))
    ladder_a = _kernels.ladder("a", k_a, c.cutoff_a, params.kappa_n1, params.kappa_n2)
    ladder_b = _kernels.ladder("b", k_b, c.cutoff_b, params.kappa_n1, params.kappa_n2)
    # the (0, 0) sector holds the populations, rho[n, m, n, m] = x[s, n, m];
    # pops is a view, so it follows the in-place updates of rho
    middle = np.flatnonzero((k_a == 0) & (k_b == 0))
    pops = rho[middle[0]].real if middle.size else None

    t = 0.0
    for step in range(total_steps):
        dt = h if step < n_full else rem
        _liouvillian(rho, k1, params, ladder_a, ladder_b)
        np.multiply(k1, 0.5 * dt, out=tmp)
        tmp += rho
        _liouvillian(tmp, k2, params, ladder_a, ladder_b)
        np.multiply(k2, 0.5 * dt, out=tmp)
        tmp += rho
        _liouvillian(tmp, k3, params, ladder_a, ladder_b)
        np.multiply(k3, dt, out=tmp)
        tmp += rho
        _liouvillian(tmp, k4, params, ladder_a, ladder_b)
        k1 += k4
        k2 += k3
        k1 += 2.0 * k2
        k1 *= dt / 6.0
        rho += k1
        # enforce Hermiticity each step; RK4 drift is symmetric-breaking noise.
        # The mirror of sector s is S - 1 - s, at the same (j_a, j_b)
        np.conjugate(rho[::-1], out=tmp)
        rho += tmp
        rho *= 0.5
        t += dt
        if (step + 1) % _LEAK_CHECK_EVERY == 0 or step == total_steps - 1:
            _check_leak(pops, params, t)

    return from_sectors(c, k_a, k_b, rho, validate=True, atol=1e-10)


def save_state_npz(state: TwoModeState, path) -> None:
    """Binary checkpoint: the stored entries as (rows, cols, values) over the
    flattened basis, plus cutoffs and trace_deficit; O(nnz), no d x d copy."""
    coo = state.csr.tocoo()
    np.savez_compressed(
        path,
        rows=coo.row,
        cols=coo.col,
        values=coo.data,
        cutoff_a=state.cutoffs.cutoff_a,
        cutoff_b=state.cutoffs.cutoff_b,
        trace_deficit=state.trace_deficit,
    )


def load_state_npz(path) -> TwoModeState:
    """Inverse of save_state_npz.  A file without the stored-entry triplets
    is refused, and so is one whose trace_deficit differs from the rebuilt
    state's by more than 1e-12 (tampered or mismatched)."""
    with np.load(path) as data:
        if not {"rows", "cols", "values"} <= set(data.files):
            raise ValueError(f"{path} holds no rows/cols/values entries")
        cutoffs = ModeCutoffs(int(data["cutoff_a"]), int(data["cutoff_b"]))
        state = TwoModeState.from_entries(cutoffs, data["rows"], data["cols"],
                                          data["values"])
        stored = float(data["trace_deficit"])
    if abs(state.trace_deficit - stored) > 1e-12:
        raise ValueError(f"stored trace_deficit {stored:.6e} disagrees with the "
                         f"matrix's {state.trace_deficit:.6e}")
    return state


def save_state_csv(state: TwoModeState, path) -> None:
    """Stored entries as text, row-major: n_a, n_b, n_a', n_b', re, im."""
    db = state.cutoffs.cutoff_b
    coo = state.csr.tocoo()
    with open(path, "w") as fh:
        fh.write("n_a,n_b,na_p,nb_p,re,im\n")
        for r, col, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            v = complex(v)
            fh.write(f"{r // db},{r % db},{col // db},{col % db},"
                     f"{v.real:.12g},{v.imag:.12g}\n")
