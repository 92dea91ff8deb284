"""Exponential Rosenbrock-type integrators for stiff matrix Riccati and
Sylvester differential equations, with dense, low-rank LDL^T and
Sylvester-solve realizations plus a closed-form reference solution."""

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FiniteEscapeError,
    IntegrationError,
    MatrixFormatError,
    SolvabilityError,
    UsageError,
)
from .integrators import (
    SCHEMES,
    IntegratorConfig,
    QuadratureRule,
    RiccatiProblem,
    Trajectory,
    integrate,
)
from .lowrank import LdlFactor
from .oracle import radon_solve, radon_trajectory
from .problems import load_problem, problem_from_spec

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DimensionError",
    "DomainError",
    "FiniteEscapeError",
    "IntegrationError",
    "IntegratorConfig",
    "LdlFactor",
    "MatrixFormatError",
    "QuadratureRule",
    "RiccatiProblem",
    "SCHEMES",
    "SolvabilityError",
    "Trajectory",
    "UsageError",
    "integrate",
    "load_problem",
    "problem_from_spec",
    "radon_solve",
    "radon_trajectory",
]
