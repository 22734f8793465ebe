"""Space-time Gaussian-process interpolation with sparse precision priors.

The prior is a linear advection-diffusion stochastic dynamics on a regular
grid; its trajectory distribution has a block-tridiagonal precision matrix
that this package assembles, factorizes, samples and differentiates.
"""

from .grid import (Field, SpaceTimeGrid, Trajectory, flatten_index,
                   read_array, read_field, unflatten_index, write_array,
                   write_field)
from .operators import (ParamFields, apply_fractional, assemble_fdm_operator,
                        project_params, validate_params)
from .state_space import (Ensemble, InitialCondition, TransitionStep,
                          build_transition, initial_condition, propagate,
                          sample_prior, transition_from_drift)
from .precision import (BlockPrecision, ObservationSet, apply_precision,
                        assemble_block_precision, dump_coordinate_triplets,
                        posterior_precision, quadratic_form)
from .linalg import (CholeskyFactor, block_diagonal_preconditioner,
                     cholesky_backward, jacobi_preconditioner, log_det_block,
                     pcg_solve, sparse_cholesky)
from .oi import (PosteriorSolver, dense_trajectory_covariance,
                 oi_solve_dense_oracle, oi_solve_precision, variational_cost,
                 variational_grad)
from .steps import PlainStep
from .solver import (AugmentedState, SolverConfig, run_solver, solver_step,
                     training_loss)
from .uncertainty import conditional_sample, ensemble_stats
from .estimation import fit_params, nll, nll_grad
from .experiment import (BlocksPattern, RandomPattern, TracksPattern,
                         benchmark, benchmark_csv, evaluate,
                         generate_obs_mask, load_config,
                         read_observations, read_theta, resolved_scales,
                         write_observations, write_theta)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Field", "SpaceTimeGrid", "Trajectory", "flatten_index",
    "unflatten_index", "read_array", "read_field", "write_array",
    "write_field",
    "ParamFields", "assemble_fdm_operator", "apply_fractional",
    "validate_params", "project_params",
    "TransitionStep", "Ensemble", "InitialCondition", "build_transition",
    "transition_from_drift", "initial_condition", "propagate", "sample_prior",
    "BlockPrecision", "ObservationSet", "assemble_block_precision",
    "posterior_precision", "apply_precision", "quadratic_form",
    "dump_coordinate_triplets",
    "CholeskyFactor", "sparse_cholesky",
    "log_det_block", "cholesky_backward", "pcg_solve",
    "jacobi_preconditioner", "block_diagonal_preconditioner",
    "PosteriorSolver", "oi_solve_precision", "oi_solve_dense_oracle",
    "dense_trajectory_covariance", "variational_cost", "variational_grad",
    "PlainStep", "SolverConfig", "AugmentedState", "solver_step",
    "run_solver", "training_loss",
    "conditional_sample", "ensemble_stats",
    "nll", "nll_grad", "fit_params",
    "RandomPattern", "TracksPattern", "BlocksPattern",
    "generate_obs_mask", "evaluate", "resolved_scales", "benchmark",
    "benchmark_csv",
    "load_config", "read_theta", "write_theta", "read_observations",
    "write_observations",
    "errors",
]
