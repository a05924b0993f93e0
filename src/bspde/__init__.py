"""Numerical laboratory for linear backward stochastic PDEs on the torus.

Spectral Galerkin in space, quadrature trees (or regression over sampled
paths) in the Wiener direction, with audits of the energy estimates, the
comparison principle, freezing/continuation solvability, and interior
regularity that the linear theory promises.
"""

from .analysis import (ESTIMATE_TAGS, EstimateReport, MollifierConfig,
                       PositivityReport, energy_audit, mollify, positivity_check)
from .errors import (BspdeError, BudgetError, ConvergenceError,
                     DegenerateKernelError, EvalError, NumericError,
                     ParseError, ScenarioValidationError, StructuralError)
from .frozen import (IterationReport, continuation_solve, freeze,
                     freeze_and_iterate)
from .oracle import solve_dense
from .scenario import (CoefficientField, ModulusOfContinuity, PathHistory,
                       Scenario, ValidationReport, validate)
from .scenario_file import (DiscretizationConfig, RunConfig, default_modulus,
                            load_scenario, load_scenario_text,
                            serialize_scenario)
from .solver import (AdaptedField, LevelFields, LevelOperators, RegressionSolution,
                     SchemeConfig, SolutionPair, backward_solve, mixed_norm_sq,
                     pair_difference, solve_regression, solve_tree,
                     strong_residual)
from .space import SpatialField, SpectralBasis, assemble_L, assemble_M
from .wiener import (PathEnsemble, WienerTree, build_chain, build_tree,
                     gauss_hermite_standard, sample_paths)

__version__ = "0.1.0"

__all__ = [
    "AdaptedField", "BspdeError", "BudgetError", "CoefficientField",
    "ConvergenceError", "DegenerateKernelError", "DiscretizationConfig",
    "ESTIMATE_TAGS", "EstimateReport", "EvalError",
    "IterationReport", "ModulusOfContinuity",
    "LevelFields", "LevelOperators", "MollifierConfig", "NumericError",
    "ParseError", "PathEnsemble", "PathHistory", "PositivityReport",
    "RegressionSolution", "RunConfig", "ScenarioValidationError",
    "Scenario", "SchemeConfig", "SolutionPair", "SpatialField",
    "SpectralBasis", "StructuralError", "ValidationReport", "WienerTree",
    "assemble_L", "assemble_M", "backward_solve",
    "build_chain", "build_tree",
    "continuation_solve", "default_modulus",
    "energy_audit", "freeze", "freeze_and_iterate",
    "gauss_hermite_standard", "load_scenario", "load_scenario_text",
    "mixed_norm_sq", "mollify", "pair_difference",
    "positivity_check", "sample_paths", "serialize_scenario",
    "solve_dense", "solve_regression",
    "solve_tree", "strong_residual", "validate",
]
