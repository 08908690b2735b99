"""Amplification of two-mode NOON states in truncated Fock space.

Builds the closed-form output states of a phase-insensitive amplifier,
quantifies the surviving entanglement through the logarithmic negativity,
validates everything against direct integration of the master equation,
and benchmarks the loss against Gaussian (two-mode squeezed vacuum) and
photon-added-Gaussian states.
"""

from .channel import (AmplifierParams, CutoffPolicy, MODE_ASYMMETRIC_A, MODE_SYMMETRIC,
                      amplified_vacuum, amplify_noon, amplify_noon_asymmetric,
                      amplify_noon_symmetric, photon_add_both, select_cutoffs)
from .fock import (ModeCutoffs, NoonSpec, ThermalSpec, TwoModeState, build_noon,
                   partial_transpose_b, product_state, trace_and_purity, trace_distance)
from .gaussian import (CovarianceState, SqueezingSpec, amplify_covariance,
                       gaussian_log_negativity, photon_added_tmsv_negativity_sweep,
                       threshold_asymmetric, threshold_bisection, threshold_symmetric,
                       tmsv_covariance, tmsv_fock)
from .husimi import (QGrid, check_scaling_law, check_zero_locus, default_grid,
                     default_grid_for_state, noon_zero_candidates, q_evaluate, q_pairs,
                     riemann_mass, square_mesh, write_qgrid_csv)
from .lindblad import (IntegratorConfig, LindbladParams, evolve, evolve_checkpoints,
                       gain_from_time, load_state_npz, save_state_csv, save_state_npz)
from .negativity import NegativityResult, log_negativity_block, log_negativity_dense

__all__ = [
    "AmplifierParams", "CovarianceState", "CutoffPolicy", "IntegratorConfig",
    "LindbladParams", "MODE_ASYMMETRIC_A", "MODE_SYMMETRIC", "ModeCutoffs",
    "NegativityResult", "NoonSpec", "QGrid", "SqueezingSpec", "ThermalSpec",
    "TwoModeState", "amplified_vacuum", "amplify_covariance", "amplify_noon",
    "amplify_noon_asymmetric", "amplify_noon_symmetric", "build_noon",
    "check_scaling_law", "check_zero_locus", "default_grid", "default_grid_for_state",
    "evolve", "evolve_checkpoints", "gain_from_time", "gaussian_log_negativity",
    "load_state_npz", "log_negativity_block", "log_negativity_dense",
    "noon_zero_candidates", "partial_transpose_b", "photon_add_both",
    "photon_added_tmsv_negativity_sweep", "product_state", "q_evaluate", "q_pairs",
    "riemann_mass", "save_state_csv", "save_state_npz", "select_cutoffs",
    "square_mesh", "threshold_asymmetric", "threshold_bisection",
    "threshold_symmetric", "tmsv_covariance", "tmsv_fock", "trace_and_purity",
    "trace_distance", "write_qgrid_csv",
]

__version__ = "0.1.0"
