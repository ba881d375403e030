"""Penalty-based nonsmooth minimization over the Stiefel manifold.

The package dissolves the orthogonality constraint X'X = I into an
unconstrained surrogate built from a polynomial retraction-like map and a
quartic Gram penalty, then minimizes the surrogate with plain (stochastic)
subgradient or proximal subgradient iterations.
"""

from .core import (
    PenaltyConfig,
    SHELL_RADIUS,
    StiefelPoint,
    apply_A,
    ata_residual_identity,
    feasibility_violation,
    inverse_A,
    jacobian_apply,
    ncdf_subgradient,
    ncdf_value,
    project_stiefel,
    project_tangent,
    random_shell_point,
    random_stiefel,
    scalar_map,
    scalar_map_deriv,
    sym,
    validate_matrix,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    NumericalError,
    SafeguardViolationError,
)
from .diagnostics import (
    CheckReport,
    brute_force_sphere_oracle,
    format_reports,
    run_identity_suite,
    run_stationarity_suite,
)
from .problems import (
    NoiseModel,
    ProblemDefinition,
    Regularizer,
    attach_noise,
    estimate_constants,
    gaussian_matrix,
    l1_regularizer,
    load_matrix_csv,
    make_l1_pca,
    make_orthogonal_mlp,
    make_quadratic_trace,
    make_sparse_pca,
    spectral_norm,
    spiked_covariance,
    synthetic_mlp_dataset,
)
from .solvers import (
    ALGORITHM_RUNNERS,
    IterateTrace,
    SolverConfig,
    SolverResult,
    StepSchedule,
    best_grid_step,
    default_initial_point,
    grid_candidates,
    run_prox_subgradient,
    run_riemannian_baseline,
    run_step_grid,
    run_subgradient,
    stationarity_estimate,
)

__version__ = "0.1.0"
