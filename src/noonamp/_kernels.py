"""The single-mode gain/loss generator of the amplifier master equation,
applied to the phase sectors of a two-mode state: the one definition of the
truncated generator.

Generator convention, per amplified mode (kn1 = kappa*N1, kn2 = kappa*N2):

    d rho = kn1 (2 adag rho a - a adag rho - rho a adag)
          + kn2 (2 a rho adag - adag a rho - rho adag a)

On the entries rho[n, m, p, q] it moves weight only along (n, p) ->
(n+1, p+1) and (n-1, p-1) for mode a, and along (m, q) -> (m+1, q+1) and
(m-1, q-1) for mode b.  The phase offsets k_a = n - p and k_b = m - q are
therefore conserved: each sector of fixed (k_a, k_b) evolves on its own,
and a sector empty at t = 0 stays exactly zero.  The sectors are stacked
as x[s, j_a, j_b], where j_a = min(n, p) and j_b = min(m, q) are the
positions along each sector's diagonal.  In sector s only
j_a < cutoff_a - |k_a| and j_b < cutoff_b - |k_b| exist; the padding
beyond carries zero ladder coefficients, so it stays zero.  Creation out of
the top retained Fock level is dropped; the integrator's leak monitor
watches the resulting trace loss.

``lindblad.evolve`` calls each kernel once per run, on a stack of identity
slices, and reads off one generator matrix per distinct |k|; the
coefficients depend on k only through |k|.  Both kernels accumulate into
``out`` (callers zero it first).
"""

from typing import NamedTuple

import numpy as np

# kernel implementation tag, carried in the benchmark's environment stamp
BACKEND = "numpy"


class Ladder(NamedTuple):
    """One mode's generator coefficients over a stack of sectors.

    ``gain_up`` weights the move j - 1 -> j (indexed by j - 1) and
    ``loss_down`` the move j + 1 -> j (indexed by j); ``gain_diag`` and
    ``loss_diag`` are the decay rates at j.  The arrays hold one row per
    sector, shaped to broadcast over the other mode's positions; the loss
    terms are None when kn2 = 0.
    """

    gain_up: np.ndarray
    gain_diag: np.ndarray
    loss_down: np.ndarray | None
    loss_diag: np.ndarray | None


def ladder(mode: str, k, dim: int, kn1: float, kn2: float) -> Ladder:
    """Coefficients of mode ``mode`` ("a" or "b", Fock dimension ``dim``)
    for the sectors whose phase offsets in that mode are ``k`` (n - p for
    mode a, m - q for mode b; one per sector)."""
    k = np.asarray(k, dtype=np.float64)[:, None]
    j = np.arange(dim, dtype=np.float64)[None, :]
    n = j + np.maximum(k, 0.0)
    p = j + np.maximum(-k, 0.0)
    inside = j < dim - np.abs(k)

    def put(mask, values):
        values = np.where(mask, values, 0.0)
        return values[:, :, None] if mode == "a" else values[:, None, :]

    gain_up = put(inside[:, 1:], (2.0 * kn1) * (np.sqrt(n[:, 1:]) * np.sqrt(p[:, 1:])))
    gain_diag = put(inside, kn1 * ((n + 1.0) + (p + 1.0)))
    if kn2 == 0.0:
        return Ladder(gain_up, gain_diag, None, None)
    # the source j + 1 must lie inside the sector too
    loss_down = put(inside[:, 1:],
                    (2.0 * kn2) * (np.sqrt(n[:, :-1] + 1.0) * np.sqrt(p[:, :-1] + 1.0)))
    loss_diag = put(inside, kn2 * (n + p))
    return Ladder(gain_up, gain_diag, loss_down, loss_diag)


def gen_mode_a(x, out, lad: Ladder):
    """Accumulate the mode-a generator of the sector stack x[s, j_a, j_b]."""
    out[:, 1:, :] += lad.gain_up * x[:, :-1, :]
    out -= lad.gain_diag * x
    if lad.loss_down is not None:
        out[:, :-1, :] += lad.loss_down * x[:, 1:, :]
        out -= lad.loss_diag * x
    return out


def gen_mode_b(x, out, lad: Ladder):
    """Accumulate the mode-b generator of the sector stack x[s, j_a, j_b]."""
    out[:, :, 1:] += lad.gain_up * x[:, :, :-1]
    out -= lad.gain_diag * x
    if lad.loss_down is not None:
        out[:, :, :-1] += lad.loss_down * x[:, :, 1:]
        out -= lad.loss_diag * x
    return out
