"""Amplification of two-mode NOON states in truncated Fock space.

Builds the closed-form output states of a phase-insensitive amplifier and
applies the exact channel (any bath parameter) to any stored state,
quantifies the surviving entanglement through the logarithmic negativity,
validates everything against direct integration of the master equation,
and benchmarks the loss against Gaussian (two-mode squeezed vacuum) and
photon-added-Gaussian states.
"""

from .channel import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                      amplify_noon, amplify_noon_asymmetric, amplify_noon_symmetric,
                      amplify_state, photon_add_both, select_cutoffs)
from .fock import (ModeCutoffs, NoonSpec, TwoModeState, build_noon, partial_transpose_b,
                   trace_distance)
from .gaussian import (CovarianceState, SqueezingSpec, amplify_covariance,
                       gaussian_log_negativity, photon_added_tmsv_negativity_sweep,
                       threshold_asymmetric, threshold_bisection, threshold_symmetric,
                       tmsv_covariance, tmsv_fock)
from .husimi import (QGrid, default_grid_for_state, q_evaluate, q_pairs, square_mesh,
                     write_qgrid_csv)
from .lindblad import evolve
from .negativity import NegativityResult, log_negativity_block, log_negativity_dense

__all__ = [
    "AmplifierParams", "CovarianceState", "CutoffPolicy", "MODE_ASYMMETRIC_A",
    "MODE_SYMMETRIC", "ModeCutoffs", "NegativityResult", "NoonSpec", "QGrid",
    "SqueezingSpec", "TwoModeState", "amplify_covariance",
    "amplify_noon", "amplify_noon_asymmetric", "amplify_noon_symmetric",
    "amplify_state", "build_noon", "default_grid_for_state", "evolve",
    "gaussian_log_negativity", "log_negativity_block", "log_negativity_dense",
    "partial_transpose_b",
    "photon_add_both", "photon_added_tmsv_negativity_sweep", "q_evaluate", "q_pairs",
    "select_cutoffs", "square_mesh", "threshold_asymmetric", "threshold_bisection",
    "threshold_symmetric", "tmsv_covariance", "tmsv_fock", "trace_distance",
    "write_qgrid_csv",
]

__version__ = "0.1.0"
