"""Exponential Rosenbrock-type integrators for stiff matrix Riccati and
Sylvester differential equations, with dense, low-rank LDL^T and
Sylvester-solve realizations plus a closed-form reference solution."""

from .densecore import compress, solve_sylvester
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
    RiccatiProblem,
    Trajectory,
    integrate,
)
from .krylov import BlockKrylovBasis, build_basis, exp_actions_krylov
from .lowrank import (
    LdlFactor,
    assemble_phi_sum,
    assemble_remainder_diff,
    assemble_rhs,
    concat_update,
)
from .oracle import radon_solve, radon_trajectory
from .phifun import (
    PhiCombination,
    QuadratureRule,
    eval_backward,
    eval_forward,
    phi_action_quadrature,
)
from .problems import (
    fdm2d_matrix,
    fdm_nonsym,
    fdm_sym,
    load_problem,
    problem_from_spec,
    random_lowrank,
    scalar_tanh_problem,
)
from .sylvop import (
    SylvesterOperator,
    linearize,
    phi1_action_augmented,
    phi_action_augmented,
)

__version__ = "0.1.0"

__all__ = [
    "BlockKrylovBasis",
    "ConfigurationError",
    "DimensionError",
    "DomainError",
    "FiniteEscapeError",
    "IntegrationError",
    "IntegratorConfig",
    "LdlFactor",
    "MatrixFormatError",
    "PhiCombination",
    "QuadratureRule",
    "RiccatiProblem",
    "SCHEMES",
    "SolvabilityError",
    "SylvesterOperator",
    "Trajectory",
    "UsageError",
    "assemble_phi_sum",
    "assemble_remainder_diff",
    "assemble_rhs",
    "build_basis",
    "compress",
    "concat_update",
    "eval_backward",
    "eval_forward",
    "exp_actions_krylov",
    "fdm2d_matrix",
    "fdm_nonsym",
    "fdm_sym",
    "integrate",
    "linearize",
    "load_problem",
    "phi1_action_augmented",
    "phi_action_augmented",
    "phi_action_quadrature",
    "problem_from_spec",
    "radon_solve",
    "radon_trajectory",
    "random_lowrank",
    "scalar_tanh_problem",
    "solve_sylvester",
]
