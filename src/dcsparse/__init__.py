"""Sparse recovery with an exact nonconvex cardinality penalty.

dc_gpsr reconstructs sparse vectors from compressed Gaussian measurements
by difference-of-convex programming over the top-(k,1)-norm penalty, with
a matrix-free gradient-projection inner solver.  The package also ships
the plain l1 / ISTA / OMP baselines, a brute-force oracle, a massive-MIMO
angular channel generator, and a seeded benchmark harness with a CLI.
"""

from .channel import (ChannelSample, PathSpec, concat_real, dft_matrix,
                      sample_sparse_channel, spatial_channel, split_complex,
                      steering_vector, to_angular)
from .harness import (ConfigError, ExperimentConfig, ResultRecord,
                      SOLVER_REGISTRY, cell_seed, load_config, parse_config,
                      run_cell, run_noiseless_study, run_snr_sweep)
from .metrics import normalized_sq_error
from .seeding import as_generator, derive_seed, make_rng
from .sensing import (MeasurementMatrix, add_noise, gaussian_matrix, measure,
                      snr_to_sigma)
from .solvers import (InstanceTooLarge, NumericalFailure, ReconResult,
                      SolverOptions, SolverTrace, SparseProblem,
                      bcqp_gradient, brute_force_l0, dc_gpsr, default_rho,
                      gpsr_baseline, ista, objective_exact, objective_l1, omp,
                      solve_bcqp_gp)
from .sparsity import (SubgradientVector, project_nonneg, soft_threshold,
                       sparsity_gap, split_pos_neg, top_k1_norm,
                       top_k1_subgradient)

__all__ = [
    "ChannelSample", "PathSpec", "concat_real", "dft_matrix",
    "sample_sparse_channel", "spatial_channel", "split_complex",
    "steering_vector", "to_angular",
    "ConfigError", "ExperimentConfig", "ResultRecord", "SOLVER_REGISTRY",
    "cell_seed", "load_config", "parse_config", "run_cell",
    "run_noiseless_study", "run_snr_sweep",
    "normalized_sq_error",
    "as_generator", "derive_seed", "make_rng",
    "MeasurementMatrix", "add_noise", "gaussian_matrix", "measure",
    "snr_to_sigma",
    "InstanceTooLarge", "NumericalFailure", "ReconResult", "SolverOptions",
    "SolverTrace", "SparseProblem", "bcqp_gradient", "brute_force_l0",
    "dc_gpsr", "default_rho", "gpsr_baseline", "ista",
    "objective_exact", "objective_l1", "omp", "solve_bcqp_gp",
    "SubgradientVector", "project_nonneg", "soft_threshold", "sparsity_gap",
    "split_pos_neg", "top_k1_norm", "top_k1_subgradient",
]

__version__ = "0.1.0"
