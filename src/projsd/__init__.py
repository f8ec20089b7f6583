"""Projected steepest descent in p-convex / q-smooth sequence spaces.

A small numerical library for nonlinear inverse problems posed in
weighted l^r spaces: duality mappings and Bregman distances, Bregman
projections onto convex sets, synthetic forward models with analytically
known constants, the single-level projected steepest descent iteration
with its posterior step size, and a multi-level driver over nested sets.
"""

from .errors import (DegenerateSet, DimensionMismatch, EtaTooLarge,
                     LambdaTooSmall, LinearCaseUnbounded, NonConvergence,
                     NonFiniteInput, NonpositiveU, NoSuchLevel, ProjSDError,
                     SchemaError, TauOutOfRange, TransitionInvalid,
                     ZeroGradient)
from .geometry import (DEFAULT_CONSTANTS, SpaceGeometry, bregman_distance,
                       certify_constants, dual_norm, duality_map,
                       inverse_duality_map, lp_space, norm)
from .models import (DiagonalLinearModel, ForwardModel, LinearModel,
                     NoisyData, QuadraticModel, adjoint_check, data_norm,
                     estimate_stability_constant, fd_derivative_check)
from .multilevel import (Level, MultiLevelReport, Schedule, example_schedule,
                         run_multi_level, select_final_level,
                         validate_schedule, validate_transition)
from .sets import (Ball, Box, ConvexSet, CoordinateSubspace, WholeSpace,
                   bregman_project, check_total_nonexpansiveness)
from .solver import (IterationState, RunReport, SolverConfig,
                     check_starting_point, compute_ctilde,
                     convergence_radius, run_algorithm1, sd_step,
                     step_quantities)

__version__ = "1.0.0"

__all__ = [
    "ProjSDError", "DimensionMismatch", "NonConvergence", "NonFiniteInput",
    "EtaTooLarge",
    "LinearCaseUnbounded", "NonpositiveU", "ZeroGradient", "DegenerateSet",
    "NoSuchLevel", "TransitionInvalid", "TauOutOfRange", "LambdaTooSmall",
    "SchemaError",
    "SpaceGeometry", "lp_space", "norm", "dual_norm", "duality_map",
    "inverse_duality_map", "bregman_distance", "certify_constants",
    "DEFAULT_CONSTANTS",
    "ConvexSet", "WholeSpace", "Box", "Ball", "CoordinateSubspace",
    "bregman_project", "check_total_nonexpansiveness",
    "ForwardModel", "LinearModel", "DiagonalLinearModel", "QuadraticModel",
    "NoisyData", "data_norm", "fd_derivative_check", "adjoint_check",
    "estimate_stability_constant",
    "SolverConfig", "IterationState", "RunReport", "compute_ctilde",
    "convergence_radius", "step_quantities", "sd_step", "run_algorithm1",
    "check_starting_point",
    "Level", "Schedule", "MultiLevelReport", "validate_transition",
    "validate_schedule", "select_final_level", "run_multi_level",
    "example_schedule",
]
