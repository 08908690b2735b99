"""Fixed-step integration of the amplifier master equation.

Per amplified mode the density matrix evolves under

    d rho/dt = kappa N1 (2 adag rho a - a adag rho - rho a adag)
             + kappa N2 (2 a rho adag - adag a rho - rho adag a)

with field gain G(t) = exp((N1 - N2) kappa t).  The generator is applied
matrix-free (shifted and scaled reads of the density tensor, see
``_kernels``), never materialized as a superoperator.  A classical
fourth-order Runge-Kutta scheme with a fixed step keeps runs bit-for-bit
reproducible; amplification pushes weight toward the cutoff, so the
populations of the top two Fock levels of each amplified mode are checked
every ten steps and the run aborts if they grow past the leak budget.

This module is the independent oracle for every closed-form constructor:
it supports arbitrary eta = N2/(N1-N2) >= 0, not just the eta = 0 limit
the closed forms assume.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import _kernels, config
from .fock import ModeCutoffs, TwoModeState

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


def _liouvillian(rho, out, params: LindbladParams, sq_a, sq_b):
    out[:] = 0.0
    if "a" in params.amplified_modes:
        _kernels.gen_mode_a(rho, out, params.kappa_n1, params.kappa_n2, sq_a)
    if "b" in params.amplified_modes:
        _kernels.gen_mode_b(rho, out, params.kappa_n1, params.kappa_n2, sq_b)
    return out


def _check_leak(rho, params: LindbladParams, t: float, leak_tol: float):
    pops = np.einsum("nmnm->nm", rho).real
    msgs = []
    if "a" in params.amplified_modes and rho.shape[0] >= 2:
        leak = float(pops[-2:, :].sum())
        if leak > leak_tol:
            msgs.append(f"mode a top-two population {leak:.3e}")
    if "b" in params.amplified_modes and rho.shape[1] >= 2:
        leak = float(pops[:, -2:].sum())
        if leak > leak_tol:
            msgs.append(f"mode b top-two population {leak:.3e}")
    if msgs:
        raise RuntimeError(
            f"cutoff leakage at t={t:.6g} (G^2={gain_from_time(params, t):.6g}): "
            + "; ".join(msgs) + f" exceeds {leak_tol:g}; raise the cutoffs"
        )


def evolve(state: TwoModeState, params: LindbladParams, config_: IntegratorConfig,
           leak_tol: float = _LEAK_TOL) -> TwoModeState:
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
    rho = state.tensor().copy()
    k1, k2, k3, k4, tmp = (np.empty_like(rho) for _ in range(5))
    sq_a = np.sqrt(np.arange(c.cutoff_a, dtype=np.float64))
    sq_b = np.sqrt(np.arange(c.cutoff_b, dtype=np.float64))

    t = 0.0
    for step in range(total_steps):
        dt = h if step < n_full else rem
        _liouvillian(rho, k1, params, sq_a, sq_b)
        np.multiply(k1, 0.5 * dt, out=tmp)
        tmp += rho
        _liouvillian(tmp, k2, params, sq_a, sq_b)
        np.multiply(k2, 0.5 * dt, out=tmp)
        tmp += rho
        _liouvillian(tmp, k3, params, sq_a, sq_b)
        np.multiply(k3, dt, out=tmp)
        tmp += rho
        _liouvillian(tmp, k4, params, sq_a, sq_b)
        k1 += k4
        k2 += k3
        k1 += 2.0 * k2
        k1 *= dt / 6.0
        rho += k1
        # enforce Hermiticity each step; RK4 drift is symmetric-breaking noise
        np.conjugate(rho.transpose(2, 3, 0, 1), out=tmp)
        rho += tmp
        rho *= 0.5
        t += dt
        if (step + 1) % _LEAK_CHECK_EVERY == 0 or step == total_steps - 1:
            _check_leak(rho, params, t, leak_tol)

    d = c.dimension
    return TwoModeState(c, rho.reshape(d, d), validate=True, atol=1e-10)


def evolve_checkpoints(state: TwoModeState, params: LindbladParams,
                       g_squared_list: list[float], step_size: float = 5e-4,
                       leak_tol: float = _LEAK_TOL) -> list[TwoModeState]:
    """States at an increasing sequence of gains, integrated continuously."""
    gains = list(g_squared_list)
    if any(g < 1.0 for g in gains):
        raise ValueError("all gains must be >= 1")
    if sorted(gains) != gains:
        raise ValueError("gains must be non-decreasing")
    out = []
    current = state
    g_prev = 1.0
    for g in gains:
        cfg = IntegratorConfig(target_g_squared=g / g_prev, step_size=step_size)
        current = evolve(current, params, cfg, leak_tol=leak_tol)
        out.append(current)
        g_prev = g
    return out


def save_state_npz(state: TwoModeState, path) -> None:
    """Binary checkpoint: density matrix plus cutoffs and trace_deficit."""
    np.savez_compressed(
        path,
        matrix=state.matrix,
        cutoff_a=state.cutoffs.cutoff_a,
        cutoff_b=state.cutoffs.cutoff_b,
        trace_deficit=state.trace_deficit,
    )


def load_state_npz(path) -> TwoModeState:
    """Inverse of save_state_npz; the stored trace_deficit must match the
    rebuilt state's within 1e-12, so a tampered or mismatched file is refused."""
    with np.load(path) as data:
        cutoffs = ModeCutoffs(int(data["cutoff_a"]), int(data["cutoff_b"]))
        state = TwoModeState(cutoffs, data["matrix"])
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
